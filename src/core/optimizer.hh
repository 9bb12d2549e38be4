/**
 * @file
 * Unroll-amount selection (paper section 4.5).
 *
 * The optimizer solves
 *
 *     minimize |bL(u) - bM|   subject to  RL(u) <= R,  u safe
 *
 * over the unroll space of the two most profitable loops, where every
 * quantity comes from the precomputed tables: memory operations after
 * scalar replacement from the RRS table, cache misses from the
 * GTS/GSS tables through Eq. 1, and register pressure from the
 * register table. Safety bounds come from the dependence graph
 * (truncated to omit input dependences -- they are not needed here,
 * which is the paper's storage win). unrollProblem builds the bounds
 * and the space once per nest; tables over that space then answer
 * every question asked of the nest. An UnrollAnalysis keeps both,
 * with the inputs they were built from, so a caller that asks about
 * the same nest again (the tuner's forced candidates) reads the
 * tables instead of rebuilding them.
 */

#ifndef UJAM_CORE_OPTIMIZER_HH
#define UJAM_CORE_OPTIMIZER_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/tables.hh"
#include "deps/analyzer.hh"
#include "model/balance.hh"

namespace ujam
{

struct UnrollAnalysis;

/** Optimizer knobs. */
struct OptimizerConfig
{
    std::int64_t maxUnroll = 8;   //!< per-loop search bound
    std::size_t maxLoops = 2;     //!< loops considered for unrolling
    bool useCacheModel = true;    //!< false: assume every access hits
    bool limitRegisters = true;   //!< enforce RL(u) <= R
    LocalityParams locality;      //!< Eq. 1 parameters
    /**
     * Let the dependence range pre-filter (DepOptions::rangePrune)
     * delete edges the symbolic dataflow engine proves infeasible
     * under `params`. Legality is then specialized to those bindings;
     * the pipeline's differential oracle runs under the same bindings
     * and backstops every decision made on the pruned graph.
     */
    bool depRangePrune = true;
    /**
     * Parameter bindings for the pre-filter. The driver fills this
     * from the program's declared defaults when left empty; with no
     * bindings, symbolic bounds simply yield no pruning.
     */
    ParamBindings params;
    /**
     * Worker threads for per-candidate fan-outs (the brute-force
     * baseline's transform+reanalyze loop): 0 = one per core, 1 =
     * serial. Candidates land in index-addressed slots reduced in
     * order, so every thread count yields the identical decision.
     * The table-driven search itself is cheap and stays serial.
     */
    std::size_t threads = 0;
    /**
     * Skip the Eq.-1 search and apply this unroll vector instead,
     * projected onto the nest's unrollable loops and clamped to the
     * dependence safety bounds (so a forced vector can never produce
     * an illegal transformation). The measured autotuner drives the
     * pipeline through this knob, one candidate vector at a time; the
     * decision still reports the model's predicted balance/register
     * numbers *at the forced vector* so model-vs-measured deltas fall
     * out for free. Vectors shorter than the nest depth apply to the
     * outermost loops; missing entries are 0.
     */
    std::optional<IntVector> forceUnroll;
    /**
     * A finished analysis to answer from instead of building one:
     * unrollAnalysis returns it when it answers the nest (see
     * UnrollAnalysis::answers) and builds a new one otherwise, so a
     * stale or foreign analysis costs a build, never a wrong answer.
     * The tuner hands its model run's analysis to every forced
     * candidate this way.
     */
    std::shared_ptr<const UnrollAnalysis> analysis;
};

/** The chosen transformation and its predicted effect. */
struct UnrollDecision
{
    IntVector unroll;            //!< chosen unroll vector (may be 0)
    double predictedBalance = 0; //!< bL at the chosen vector
    double machineBalance = 0;   //!< bM
    double originalBalance = 0;  //!< bL at unroll vector 0
    std::int64_t registers = 0;  //!< RL at the chosen vector
    double memOps = 0;           //!< VM for the unrolled body
    double flops = 0;            //!< VF for the unrolled body
    double misses = 0;           //!< Eq. 1 accesses for the body
    IntVector safetyBounds;      //!< per-loop legal maximum
    std::vector<std::size_t> consideredLoops; //!< which loops searched
    std::size_t searchedPoints = 0; //!< unroll vectors evaluated

    /** @return True iff any loop is actually unrolled. */
    bool
    transforms() const
    {
        return !unroll.isZero();
    }

    /** @return A one-line report of the decision. */
    std::string toString() const;
};

/**
 * What the optimizer knows about a nest before it builds tables,
 * shared by every query and every table method (UGS tables, brute
 * force, dependence-based) so that they all search one space.
 */
struct UnrollProblem
{
    /**
     * Per-loop legal maximum at config.maxUnroll, from the graph
     * without input dependences, range-pruned under config.params
     * when config.depRangePrune is set.
     */
    IntVector safetyBounds;
    /** The Eq.-1-ranked loops safety allows, each up to its bound. */
    UnrollSpace space;
    Subspace localized; //!< the cache model's: the innermost loop
};

/**
 * One nest's unroll problem and tables, with every input they were
 * built from. Read-only once built, so one analysis answers any
 * number of decisions (the search, forced vectors) on any thread.
 */
struct UnrollAnalysis
{
    LoopNest nest;              //!< the nest it was built for
    std::int64_t maxUnroll = 0; //!< OptimizerConfig::maxUnroll
    std::size_t maxLoops = 0;   //!< OptimizerConfig::maxLoops
    bool depRangePrune = false; //!< OptimizerConfig::depRangePrune
    ParamBindings params;       //!< OptimizerConfig::params
    LocalityParams locality;    //!< machineLocality at the build
    UnrollProblem problem;
    NestTables tables;          //!< built over problem.space

    /**
     * @return True iff this analysis is the one unrollProblem and
     * buildNestTables would build for nest on machine under config:
     * the nest is structurally equal and every input above matches.
     */
    bool answers(const LoopNest &nest, const MachineModel &machine,
                 const OptimizerConfig &config) const;
};

/**
 * @return The Eq. 1 parameters the optimizer prices with:
 * config.locality at the machine's cache-line size.
 */
LocalityParams machineLocality(const MachineModel &machine,
                               const OptimizerConfig &config);

/** @return The nest's unroll problem; requires depth >= 2. */
UnrollProblem unrollProblem(const LoopNest &nest,
                            const MachineModel &machine,
                            const OptimizerConfig &config);

/**
 * @return config.analysis when it answers nest, else the analysis
 * unrollProblem and buildNestTables build now; requires depth >= 2.
 */
std::shared_ptr<const UnrollAnalysis>
unrollAnalysis(const LoopNest &nest, const MachineModel &machine,
               const OptimizerConfig &config);

/**
 * The model at config.forceUnroll, or else the search, on tables built
 * over problem.space (chooseUnrollAmounts is unrollAnalysis, then
 * this on its problem and tables).
 */
UnrollDecision decideUnroll(const LoopNest &nest,
                            const MachineModel &machine,
                            const OptimizerConfig &config,
                            const UnrollProblem &problem,
                            const NestTables &tables);

/**
 * Choose unroll amounts for a nest on a machine.
 *
 * @param nest    The candidate nest (depth >= 2 and analyzable refs
 *                give useful results; otherwise the identity decision
 *                is returned).
 * @param machine Target machine.
 * @param config  Search configuration; its analysis is read instead
 *                of a new build when it answers the nest.
 * @return The decision; unroll is all-zero when nothing helps.
 */
UnrollDecision chooseUnrollAmounts(const LoopNest &nest,
                                   const MachineModel &machine,
                                   const OptimizerConfig &config = {});

/**
 * Search an already-built table set for the best unroll vector (the
 * inner loop of chooseUnrollAmounts; exposed so one build answers
 * several searches -- UJ014 runs it with the register limit off, then
 * on). The decision's safetyBounds are left zero.
 */
UnrollDecision searchUnrollSpace(const LoopNest &nest,
                                 const MachineModel &machine,
                                 const OptimizerConfig &config,
                                 const NestTables &tables);

/** The model's inputs at one point: operation counts and registers. */
struct PointModel
{
    BalanceInputs inputs;
    std::int64_t registers = 0;
};

/**
 * The search over every point of space, reading each point's model
 * from `at`: the tables for searchUnrollSpace, the materialized bodies
 * for the brute-force baseline. The point closest to bM wins (within
 * the register file when config.limitRegisters); near-ties go to the
 * smaller body (less code growth, smaller fringe cost).
 */
UnrollDecision searchPoints(
    const LoopNest &nest, const MachineModel &machine,
    const OptimizerConfig &config, const UnrollSpace &space,
    const std::function<PointModel(const IntVector &)> &at);

/**
 * Evaluate the balance of a specific unroll vector using tables
 * already built, as the search does (the report's bL column).
 */
BalanceResult evaluateUnrollVector(const NestTables &tables,
                                   const LoopNest &nest,
                                   const IntVector &u,
                                   const MachineModel &machine,
                                   const OptimizerConfig &config);

} // namespace ujam

#endif // UJAM_CORE_OPTIMIZER_HH
