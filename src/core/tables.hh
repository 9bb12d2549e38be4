/**
 * @file
 * The complete table set the optimizer searches (paper section 4).
 *
 * For each uniformly generated set we precompute, over the unroll
 * space:
 *   - the number of group-temporal sets (Fig. 2),
 *   - the number of group-spatial sets (Fig. 3),
 *   - the number of register-reuse sets = memory operations after
 *     scalar replacement (Fig. 5), and
 *   - the register pressure of the scalar-replaced body (Fig. 7).
 *
 * Everything derives from closed-form merge points; no loop body or
 * reference list is ever unrolled.
 */

#ifndef UJAM_CORE_TABLES_HH
#define UJAM_CORE_TABLES_HH

#include "core/rrs.hh"
#include "core/set_tables.hh"
#include "reuse/locality.hh"

namespace ujam
{

/** Tables for one uniformly generated set. */
struct UgsTables
{
    /** Self-reuse class under the localized space (constant in u). */
    SelfReuse self = SelfReuse::None;
    /** dim(RST cap L), for the temporal amortization factor. */
    std::size_t temporalDims = 0;
    /**
     * Whether the set's H is SIV separable. The cache tables
     * (groupTemporal/groupSpatial) are exact for general matrices;
     * the RRS and register tables fall back to one-op-per-member
     * pessimism when this is false.
     */
    bool analyzable = true;
    /**
     * Innermost-invariant sets hoist their loads/stores out of the
     * innermost loop, so they contribute nothing to VM (their rrs
     * table still counts sets for register accounting).
     */
    bool innerInvariant = false;
    /** Members in the set (for pessimistic fallbacks). */
    std::size_t memberCount = 0;

    UnrollTable groupTemporal; //!< gT(u)
    UnrollTable groupSpatial;  //!< gS(u)
    UnrollTable rrs;           //!< memory ops after scalar replacement
    UnrollTable registers;     //!< registers the chains need
};

/** All tables for one nest. */
struct NestTables
{
    UnrollSpace space;
    Subspace localized;
    std::vector<UgsTables> perUgs;

    UnrollTable rrsTotal;       //!< sum of per-UGS rrs tables
    UnrollTable registersTotal; //!< sum of per-UGS register tables

    /**
     * @return Main-memory accesses (Eq. 1) of the body unrolled by u,
     * summing every UGS with its own self-reuse factor.
     */
    double mainMemoryAccesses(const IntVector &u,
                              const LocalityParams &params) const;
};

/**
 * Build the table set for a nest.
 *
 * @param nest      The nest (depth >= 2 for useful results).
 * @param space     The unroll space to cover.
 * @param localized The localized iteration space for the cache model
 *                  (normally the innermost loop).
 * @return All tables.
 */
NestTables buildNestTables(const LoopNest &nest, const UnrollSpace &space,
                           const Subspace &localized);

/**
 * @return How many times this thread has called buildNestTables: a
 * deterministic work counter that tests read; nothing else depends
 * on it.
 */
std::uint64_t nestTableBuilds();

/**
 * Register-pressure table for one UGS (Fig. 7 semantics).
 *
 * Chains are the connected components of RRS copies under the merge
 * points; each chain needs its touch-phase span plus one registers.
 * Computed from the merges collectMergeEdges finds.
 *
 * Filled by a row sweep in dense-index order: each row of slower
 * digits starts a fresh union-find, and each step of the fastest
 * digit adds one slab of copies and unions it, keeping a running sum
 * of chain spans. Work is points * (L0 + 2) / 2 copy visits with two
 * unrolled dims (L0 the slower limit); memory is nsets * points.
 */
UnrollTable computeRegisterTable(const UniformlyGeneratedSet &ugs,
                                 const RrsAnalysis &rrs,
                                 const UnrollSpace &space);

} // namespace ujam

#endif // UJAM_CORE_TABLES_HH
