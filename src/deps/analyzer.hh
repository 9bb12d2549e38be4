/**
 * @file
 * Whole-nest dependence analysis.
 */

#ifndef UJAM_DEPS_ANALYZER_HH
#define UJAM_DEPS_ANALYZER_HH

#include <string>
#include <vector>

#include "deps/graph.hh"
#include "ir/loop_nest.hh"

namespace ujam
{

/**
 * One dependence edge the range pre-filter deleted, with the proof.
 * src/dst are access ordinals like Dependence's.
 */
struct PrunedEdge
{
    std::size_t src = 0;
    std::size_t dst = 0;
    DepKind kind = DepKind::Input;
    std::string reason; //!< human-readable disjointness/trip proof
};

/** Options controlling dependence-graph construction. */
struct DepOptions
{
    /**
     * Record input (read-read) dependences. Dependence-based reuse
     * analysis requires them; the UGS model of this paper does not.
     */
    bool includeInput = true;

    /**
     * Range-disjointness pre-filter: delete edges whose subscript
     * intervals (from the symbolic dataflow engine, evaluated under
     * `params`) can never intersect, and edges whose exact iteration
     * distance exceeds what the loop's trip count admits. The GKT
     * subscript tests ignore loop bounds entirely, so this removes
     * edges they must conservatively keep. Legality becomes
     * specialized to `params`; the pipeline's differential oracle
     * (which runs under the same bindings) backstops every transform
     * decided on a pruned graph.
     */
    bool rangePrune = false;

    /** Parameter bindings the pre-filter evaluates bounds under. */
    ParamBindings params{};

    /** When non-null, receives one entry per deleted edge. */
    std::vector<PrunedEdge> *pruned = nullptr;
};

/**
 * Build the dependence graph of a nest.
 *
 * Tests every pair of accesses to the same array (including an access
 * against itself for loop-invariant self reuse), classifies edges by
 * kind, orients them source-before-sink, and tags edges arising from
 * recognized reduction statements.
 *
 * @param nest The nest to analyze.
 * @param options See DepOptions.
 * @return The dependence graph, directions indexed outermost-first.
 */
DependenceGraph analyzeDependences(const LoopNest &nest,
                                   const DepOptions &options = {});

/**
 * One reason a loop's unroll-and-jam amount is restricted: the edge
 * (by index into the graph) that imposed a limit at a level, and
 * whether it was the outer-carrier fringe-hoist hazard (which forbids
 * any unrolling of that level) or an ordinary jam-direction limit.
 */
struct UnrollConstraint
{
    std::size_t level = 0;    //!< the restricted loop, outermost-first
    std::size_t edgeIndex = 0; //!< offending edge in graph.edges()
    std::int64_t limit = 0;   //!< amount the edge allows at this level
    bool outerCarrier = false; //!< fringe-hoist hazard (limit is 0)
};

/**
 * Compute, per loop, the largest unroll-and-jam amount the
 * dependence graph allows (capped).
 *
 * Unroll-and-jam of loop k by u interleaves u+1 consecutive k
 * iterations into one pass over the inner loops; it is illegal when a
 * dependence carried by k at distance dk <= u points backward in an
 * inner loop (direction '>' or '*'), because jamming would reverse
 * it. It is also illegal, at any amount, when a dependence carried by
 * a loop outer to k points backward at k ('>' or '*'), because the
 * remainder iterations of k are hoisted into a fringe nest that runs
 * after the main nest has finished every outer iteration. A '*'
 * component admits pairs in either textual order, so edges are
 * checked in both orientations. Reduction self-cycles do not
 * constrain the transformation.
 *
 * @param nest  The nest.
 * @param graph Its dependence graph.
 * @param cap   Upper bound for every entry (the optimizer's search
 *              bound).
 * @param constraints When non-null, receives one entry per
 *              edge-imposed restriction tighter than the cap (the
 *              static analyzer's evidence trail).
 * @return Per-loop maximum safe unroll; the innermost entry is 0.
 */
IntVector safeUnrollBounds(const LoopNest &nest,
                           const DependenceGraph &graph, std::int64_t cap,
                           std::vector<UnrollConstraint> *constraints);

/** Overload without the evidence trail. */
IntVector safeUnrollBounds(const LoopNest &nest,
                           const DependenceGraph &graph, std::int64_t cap);

} // namespace ujam

#endif // UJAM_DEPS_ANALYZER_HH
