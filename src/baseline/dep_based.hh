/**
 * @file
 * Dependence-based unroll selection (Carr & Kennedy [3], Carr [1]).
 *
 * The pre-UGS approach: reuse information comes from the dependence
 * graph, which must therefore record input (read-read) dependences --
 * the storage the paper's technique eliminates. Group-reuse merge
 * points are read off edge distance vectors instead of being solved
 * from subscript matrices; on SIV separable nests both carry the same
 * information, so the decisions coincide while the dependence-based
 * model pays for building and storing the full graph.
 */

#ifndef UJAM_BASELINE_DEP_BASED_HH
#define UJAM_BASELINE_DEP_BASED_HH

#include "core/optimizer.hh"

namespace ujam
{

/** Outcome of the dependence-based method, with its storage bill. */
struct DepBasedResult
{
    UnrollDecision decision;

    std::size_t graphEdges = 0;      //!< edges incl. input deps
    std::size_t inputEdges = 0;      //!< input-dep edges
    std::size_t graphBytes = 0;      //!< modeled storage, full graph
    std::size_t graphBytesNoInput = 0; //!< storage without input deps
};

/**
 * Choose unroll amounts using the dependence-based reuse model.
 *
 * The safety bounds, the space and the tables it starts from come
 * from unrollProblem, as for chooseUnrollAmounts; the full graph
 * (input dependences included) only supplies the group-temporal
 * absorption points and the storage bill.
 *
 * @param nest    The nest.
 * @param machine Target machine.
 * @param config  Shared optimizer configuration.
 * @return Decision plus the dependence-graph storage accounting.
 */
DepBasedResult depBasedChooseUnroll(const LoopNest &nest,
                                    const MachineModel &machine,
                                    const OptimizerConfig &config = {});

/**
 * Modeled storage of the UGS-based analysis for the same nest: the
 * per-reference (H, c) records plus set leader lists -- what replaces
 * the input-dependence portion of the graph.
 */
std::size_t ugsModelBytes(const LoopNest &nest);

} // namespace ujam

#endif // UJAM_BASELINE_DEP_BASED_HH
