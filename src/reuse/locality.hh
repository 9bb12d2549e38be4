/**
 * @file
 * The Wolf-Lam memory-cost model (paper Equation 1) and loop ranking.
 *
 * For a uniformly generated set with gT group-temporal and gS
 * group-spatial sets under a localized space L, the main-memory
 * accesses per iteration are
 *
 *     A = (gS + (gT - gS) / line) * sigma
 *
 * where sigma captures self reuse inside L: one stream leader per GSS
 * pays the full stream cost, every further GTS leader inside a GSS
 * shares cache lines with it (cost 1/line), and self reuse scales
 * every stream (amortized over the localized trip count for
 * self-temporal reuse, over the line length for self-spatial reuse).
 * See DESIGN.md for the reconstruction notes.
 */

#ifndef UJAM_REUSE_LOCALITY_HH
#define UJAM_REUSE_LOCALITY_HH

#include "reuse/group_reuse.hh"

namespace ujam
{

/** Parameters of the locality cost model. */
struct LocalityParams
{
    std::int64_t cacheLineElems = 4; //!< cache line size in elements
    double localizedTrip = 100.0;    //!< assumed trip of localized loops

    bool operator==(const LocalityParams &other) const = default;
};

/** Self-reuse classification of a UGS within a localized space. */
enum class SelfReuse
{
    None,     //!< every iteration touches a new cache line
    Spatial,  //!< RSS cap L != 0: new line every `line` iterations
    Temporal  //!< RST cap L != 0: same data across localized iterations
};

/** @return "none", "spatial" or "temporal". */
const char *selfReuseName(SelfReuse kind);

/** @return The self-reuse class of ugs within localized. */
SelfReuse classifySelfReuse(const UniformlyGeneratedSet &ugs,
                            const Subspace &localized);

/** @return sigma for the given self-reuse class. */
double selfReuseFactor(SelfReuse kind, const LocalityParams &params,
                       std::size_t temporal_dims);

/**
 * Equation 1 applied with explicit set counts (used by the unroll
 * tables, which know gT/gS after unrolling without repartitioning).
 *
 * @param group_temporal Number of GTSs.
 * @param group_spatial  Number of GSSs.
 * @param self           Self-reuse class of the set.
 * @param temporal_dims  dim(RST cap L), used when self == Temporal.
 * @param params         Model parameters.
 * @return Main-memory accesses per iteration for the whole set.
 */
double equationOneAccesses(double group_temporal, double group_spatial,
                           SelfReuse self, std::size_t temporal_dims,
                           const LocalityParams &params);

/** @return Eq. 1 for a UGS by partitioning it under localized. */
double ugsAccessesPerIteration(const UniformlyGeneratedSet &ugs,
                               const Subspace &localized,
                               const LocalityParams &params);

/** @return Sum of Eq. 1 over all UGSs of the nest body. */
double nestMemoryCost(const LoopNest &nest, const Subspace &localized,
                      const LocalityParams &params);

/**
 * Rank outer loops by how much localizing them (the effect of
 * unroll-and-jam) lowers the nest's Eq. 1 cost relative to the
 * innermost-only localized space.
 *
 * @param nest      The nest.
 * @param params    Model parameters.
 * @param max_loops At most this many candidates are returned.
 * @return Outer-loop indices, best first; never includes the
 *         innermost loop.
 */
std::vector<std::size_t> rankUnrollCandidates(const LoopNest &nest,
                                              const LocalityParams &params,
                                              std::size_t max_loops);

} // namespace ujam

#endif // UJAM_REUSE_LOCALITY_HH
