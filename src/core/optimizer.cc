#include "core/optimizer.hh"

#include <algorithm>
#include <cmath>

#include "support/diagnostics.hh"
#include "support/string_utils.hh"

namespace ujam
{

namespace
{

/** Operation counts of the body unrolled by u, from the tables. */
BalanceInputs
bodyInputs(const NestTables &tables, const LoopNest &nest,
           const IntVector &u, const MachineModel &machine,
           const OptimizerConfig &config)
{
    double copies = 1.0;
    for (std::size_t k = 0; k < u.size(); ++k)
        copies *= static_cast<double>(u[k] + 1);

    BalanceInputs in;
    in.flops = static_cast<double>(nest.bodyFlops()) * copies;
    in.memOps = static_cast<double>(tables.rrsTotal.at(u));
    in.mainMemoryAccesses =
        config.useCacheModel
            ? tables.mainMemoryAccesses(u, machineLocality(machine, config))
            : 0.0;
    return in;
}

/** The fields every decision on a nest starts from. */
UnrollDecision
decisionHeader(const LoopNest &nest, const MachineModel &machine,
               const std::vector<std::size_t> &considered)
{
    UnrollDecision decision;
    decision.unroll = IntVector(nest.depth());
    decision.machineBalance = machine.machineBalance();
    decision.safetyBounds = IntVector(nest.depth());
    decision.consideredLoops = considered;
    return decision;
}

/** Make u the decision's vector, with the model's numbers there. */
void
pick(UnrollDecision &decision, const IntVector &u, const BalanceInputs &in,
     double balance, std::int64_t registers)
{
    decision.unroll = u;
    decision.predictedBalance = balance;
    decision.registers = registers;
    decision.memOps = in.memOps;
    decision.flops = in.flops;
    decision.misses = in.mainMemoryAccesses;
}

/**
 * The forced-vector path (OptimizerConfig::forceUnroll): project the
 * requested vector onto the unrollable dims, clamp to the space's
 * safety-derived limits, and evaluate the model at exactly that
 * point.
 */
UnrollDecision
forceUnrollVector(const LoopNest &nest, const MachineModel &machine,
                  const OptimizerConfig &config,
                  const NestTables &tables, const IntVector &requested)
{
    const std::size_t depth = nest.depth();
    const UnrollSpace &space = tables.space;
    UnrollDecision decision = decisionHeader(nest, machine, space.dims());

    IntVector u(depth);
    for (std::size_t i = 0; i < space.dims().size(); ++i) {
        std::size_t k = space.dims()[i];
        std::int64_t want =
            k < requested.size() ? requested[k] : 0;
        u[k] = std::clamp<std::int64_t>(want, 0, space.limits()[i]);
    }

    decision.originalBalance =
        evaluateUnrollVector(tables, nest, IntVector(depth), machine,
                             config)
            .balance;
    BalanceInputs in = bodyInputs(tables, nest, u, machine, config);
    pick(decision, u, in, loopBalance(in, machine).balance,
         tables.registersTotal.at(u));
    decision.searchedPoints = 1;
    return decision;
}

} // namespace

std::string
UnrollDecision::toString() const
{
    return concat("unroll=", unroll.toString(), " bL=",
                  formatFixed(predictedBalance, 3), " (orig ",
                  formatFixed(originalBalance, 3), ", bM=",
                  formatFixed(machineBalance, 3), ") regs=", registers,
                  " VM=", formatFixed(memOps, 1), " VF=",
                  formatFixed(flops, 1));
}

LocalityParams
machineLocality(const MachineModel &machine, const OptimizerConfig &config)
{
    LocalityParams locality = config.locality;
    locality.cacheLineElems = machine.lineElems();
    return locality;
}

UnrollProblem
unrollProblem(const LoopNest &nest, const MachineModel &machine,
              const OptimizerConfig &config)
{
    const std::size_t depth = nest.depth();
    UJAM_ASSERT(depth >= 2, "unroll problem of a nest shallower than 2");
    UnrollProblem problem;

    // Safety first: the dependence graph (input dependences omitted --
    // they never constrain correctness) bounds every unroll amount.
    DepOptions dep_options;
    dep_options.includeInput = false;
    dep_options.rangePrune = config.depRangePrune;
    dep_options.params = config.params;
    DependenceGraph graph = analyzeDependences(nest, dep_options);
    problem.safetyBounds =
        safeUnrollBounds(nest, graph, config.maxUnroll);

    // Pick the most profitable loops by Eq. 1 (section 4.5), dropping
    // loops safety forbids entirely.
    std::vector<std::size_t> dims;
    std::vector<std::int64_t> limits;
    for (std::size_t k : rankUnrollCandidates(
             nest, machineLocality(machine, config), config.maxLoops)) {
        if (problem.safetyBounds[k] > 0) {
            dims.push_back(k);
            limits.push_back(problem.safetyBounds[k]);
        }
    }
    problem.space = UnrollSpace(depth, dims, limits);
    problem.localized = Subspace::coordinate(depth, {depth - 1});
    return problem;
}

bool
UnrollAnalysis::answers(const LoopNest &other, const MachineModel &machine,
                        const OptimizerConfig &config) const
{
    return maxUnroll == config.maxUnroll && maxLoops == config.maxLoops &&
           depRangePrune == config.depRangePrune &&
           locality == machineLocality(machine, config) &&
           params == config.params && nest == other;
}

std::shared_ptr<const UnrollAnalysis>
unrollAnalysis(const LoopNest &nest, const MachineModel &machine,
               const OptimizerConfig &config)
{
    if (config.analysis && config.analysis->answers(nest, machine, config))
        return config.analysis;
    auto analysis = std::make_shared<UnrollAnalysis>();
    analysis->nest = nest;
    analysis->maxUnroll = config.maxUnroll;
    analysis->maxLoops = config.maxLoops;
    analysis->depRangePrune = config.depRangePrune;
    analysis->params = config.params;
    analysis->locality = machineLocality(machine, config);
    analysis->problem = unrollProblem(nest, machine, config);
    analysis->tables = buildNestTables(nest, analysis->problem.space,
                                       analysis->problem.localized);
    return analysis;
}

BalanceResult
evaluateUnrollVector(const NestTables &tables, const LoopNest &nest,
                     const IntVector &u, const MachineModel &machine,
                     const OptimizerConfig &config)
{
    return loopBalance(bodyInputs(tables, nest, u, machine, config),
                       machine);
}

UnrollDecision
searchPoints(const LoopNest &nest, const MachineModel &machine,
             const OptimizerConfig &config, const UnrollSpace &space,
             const std::function<PointModel(const IntVector &)> &at)
{
    UnrollDecision decision = decisionHeader(nest, machine, space.dims());
    double best_score = 0.0;
    double best_copies = 0.0;

    for (std::size_t i = 0; i < space.size(); ++i) {
        IntVector u = space.vectorAt(i);
        PointModel point = at(u);
        BalanceResult result = loopBalance(point.inputs, machine);
        ++decision.searchedPoints;

        // The identity vector (index 0) is always admissible -- it is
        // the untransformed loop; other points must fit the register
        // file.
        if (u.isZero()) {
            decision.originalBalance = result.balance;
        } else if (config.limitRegisters &&
                   point.registers > machine.fpRegisters) {
            continue;
        }

        double score = std::fabs(result.balance - machine.machineBalance());
        double copies = 1.0;
        for (std::size_t k = 0; k < u.size(); ++k)
            copies *= static_cast<double>(u[k] + 1);
        if (i == 0 || score < best_score - 1e-12 ||
            (score < best_score + 1e-12 && copies < best_copies)) {
            best_score = score;
            best_copies = copies;
            pick(decision, u, point.inputs, result.balance,
                 point.registers);
        }
    }
    return decision;
}

UnrollDecision
searchUnrollSpace(const LoopNest &nest, const MachineModel &machine,
                  const OptimizerConfig &config, const NestTables &tables)
{
    return searchPoints(nest, machine, config, tables.space,
                        [&](const IntVector &u) {
                            return PointModel{
                                bodyInputs(tables, nest, u, machine,
                                           config),
                                tables.registersTotal.at(u)};
                        });
}

UnrollDecision
decideUnroll(const LoopNest &nest, const MachineModel &machine,
             const OptimizerConfig &config, const UnrollProblem &problem,
             const NestTables &tables)
{
    UnrollDecision decision =
        config.forceUnroll
            ? forceUnrollVector(nest, machine, config, tables,
                                *config.forceUnroll)
            : searchUnrollSpace(nest, machine, config, tables);
    decision.safetyBounds = problem.safetyBounds;
    return decision;
}

UnrollDecision
chooseUnrollAmounts(const LoopNest &nest, const MachineModel &machine,
                    const OptimizerConfig &config)
{
    if (nest.depth() < 2)
        return decisionHeader(nest, machine, {});
    std::shared_ptr<const UnrollAnalysis> analysis =
        unrollAnalysis(nest, machine, config);
    return decideUnroll(nest, machine, config, analysis->problem,
                        analysis->tables);
}

} // namespace ujam
