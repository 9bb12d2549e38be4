#include "baseline/brute_force.hh"

#include <algorithm>

#include "support/thread_pool.hh"
#include "transform/unroll_and_jam.hh"

namespace ujam
{

BodyCounts
measureUnrolledBody(const LoopNest &nest, const IntVector &u,
                    const Subspace &localized,
                    const LocalityParams &params)
{
    std::vector<LoopNest> expanded = unrollAndJamNest(nest, u);
    return computeBodyCounts(expanded.front(), localized, params);
}

BruteForceResult
bruteForceChooseUnroll(const LoopNest &nest, const MachineModel &machine,
                       const OptimizerConfig &config)
{
    BruteForceResult result;
    const std::size_t depth = nest.depth();
    result.unroll = IntVector(depth);
    if (depth < 2)
        return result;

    UnrollProblem problem = unrollProblem(nest, machine, config);
    const UnrollSpace &space = problem.space;
    const LocalityParams locality = machineLocality(machine, config);

    // Transform+reanalyze of each candidate is independent and by far
    // the dominant cost, so fan it out into index-addressed slots; the
    // shared search then reads them in index order, so every thread
    // count reproduces the serial decision (tie-breaks included).
    std::vector<BodyCounts> bodies(space.size());
    parallelFor(space.size(), config.threads, [&](std::size_t i) {
        bodies[i] = measureUnrolledBody(nest, space.vectorAt(i),
                                        problem.localized, locality);
    });
    for (const BodyCounts &body : bodies) {
        result.peakBodyRefs = std::max(result.peakBodyRefs, body.references);
        result.totalBodyRefs += body.references;
    }

    UnrollDecision decision = searchPoints(
        nest, machine, config, space, [&](const IntVector &u) {
            const BodyCounts &body = bodies[space.indexOf(u)];
            PointModel point;
            point.inputs.memOps = static_cast<double>(body.memOps);
            point.inputs.flops = static_cast<double>(body.flops);
            point.inputs.mainMemoryAccesses =
                config.useCacheModel ? body.mainMemoryAccesses : 0.0;
            point.registers = body.registers;
            return point;
        });
    result.unroll = decision.unroll;
    result.predictedBalance = decision.predictedBalance;
    result.registers = decision.registers;
    result.pointsEvaluated = decision.searchedPoints;
    return result;
}

} // namespace ujam
