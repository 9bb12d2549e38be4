/**
 * @file
 * Set-count tables over the unroll space (paper Figs. 2 and 3).
 *
 * Given the lex-ordered leaders of the current reuse sets of one
 * uniformly generated set, ComputeTable determines, for every unroll
 * vector, how many sets exist after unroll-and-jam -- without
 * unrolling anything. The key facts (section 4.2):
 *
 *  - A copy of leader k at offset u' starts a NEW set unless it
 *    coincides (modulo the localized space) with a copy of another
 *    leader at a smaller offset; the smallest such offset difference
 *    is the pair's merge point u* = solve H u = cj - ck.
 *  - A leader invariant along an unrolled loop self-merges with
 *    shift e_dim (its copies are literally the same reference).
 *  - The per-copy-point table of new sets, prefix-summed over the
 *    <= lattice (the Sum function), yields the set count for every
 *    unroll vector in one pass.
 */

#ifndef UJAM_CORE_SET_TABLES_HH
#define UJAM_CORE_SET_TABLES_HH

#include <vector>

#include "core/unroll_space.hh"
#include "linalg/rat_matrix.hh"
#include "linalg/subspace.hh"

namespace ujam
{

/** Copy (k, u') of leader k coincides with copy (absorber, u' - shift). */
struct MergeEdge
{
    std::size_t absorber; //!< k itself for a self-merge
    IntVector shift;      //!< u*, nonnegative on the unrolled dims
};

/**
 * Collect, for every leader, the merges that stop its copies from
 * starting new sets. Self-merges come first: a leader invariant along
 * an unrolled dim merges with itself at shift e_dim. Then the
 * pairwise merges within a class: H u* = cj - ck (mod localized), for
 * nonzero u* inside the space.
 *
 * @param subscript  The set's common H (use the spatial variant and
 *                   spatially-masked offsets for GSS tables).
 * @param leaders    Lex-ordered leader offset vectors.
 * @param partition  Class id per leader; merges across classes are
 *                   ignored. Empty = one class.
 * @param absorbable Per-leader flag: false = the leader's copies
 *                   always start new sets, so it gets no edges.
 *                   Empty = every leader is absorbable.
 * @param localized  The localized iteration space.
 * @param space      The unroll space (limits which dims may shift).
 * @return edges[k] = leader k's merges.
 */
std::vector<std::vector<MergeEdge>>
collectMergeEdges(const RatMatrix &subscript,
                  const std::vector<IntVector> &leaders,
                  const std::vector<std::size_t> &partition,
                  const std::vector<bool> &absorbable,
                  const Subspace &localized, const UnrollSpace &space);

/**
 * The paper's ComputeTable + Sum: number of reuse sets after
 * unrolling, for every unroll vector.
 *
 * @param subscript The set's common H.
 * @param leaders   Lex-ordered leader offsets of the current sets.
 * @param localized The localized iteration space.
 * @param space     The unroll space.
 * @return Table with entry(u) == number of sets in the body unrolled
 *         by u.
 */
UnrollTable computeSetCountTable(const RatMatrix &subscript,
                                 const std::vector<IntVector> &leaders,
                                 const Subspace &localized,
                                 const UnrollSpace &space);

/**
 * Restricted variant used for register-reuse sets: absorption is only
 * allowed between leaders of the same partition class (the MRRS the
 * leader belongs to).
 *
 * @param partition  Class id per leader; merges across classes are
 *                   ignored.
 * @param absorbable Per-leader flag: false marks leaders whose copies
 *                   always start new sets (definition-headed RRSs --
 *                   every store issues, so a def copy is never
 *                   subsumed by an existing chain).
 */
UnrollTable computeSetCountTablePartitioned(
    const RatMatrix &subscript, const std::vector<IntVector> &leaders,
    const std::vector<std::size_t> &partition,
    const std::vector<bool> &absorbable, const Subspace &localized,
    const UnrollSpace &space);

} // namespace ujam

#endif // UJAM_CORE_SET_TABLES_HH
