/**
 * @file
 * Group-temporal and group-spatial partitioning of a UGS.
 *
 * Two members with offsets c1, c2 are group-temporal w.r.t. a
 * localized space L when exists x in L with H x = c2 - c1; group-
 * spatial when the same holds after dropping the first (contiguous)
 * array dimension. The partitions' set counts feed Wolf & Lam's
 * memory-cost formula (paper Eq. 1).
 */

#ifndef UJAM_REUSE_GROUP_REUSE_HH
#define UJAM_REUSE_GROUP_REUSE_HH

#include "reuse/ugs.hh"

namespace ujam
{

/** One reuse group: indices into the UGS's member vector. */
struct ReuseGroup
{
    std::vector<std::size_t> members; //!< sorted by offset, lex order
    std::size_t leader = 0;           //!< lex-smallest offset member
};

/** Partition a UGS into group-temporal sets (GTSs). */
std::vector<ReuseGroup> groupTemporalSets(const UniformlyGeneratedSet &ugs,
                                          const Subspace &localized);

/** Partition a UGS into group-spatial sets (GSSs). */
std::vector<ReuseGroup> groupSpatialSets(const UniformlyGeneratedSet &ugs,
                                         const Subspace &localized);

} // namespace ujam

#endif // UJAM_REUSE_GROUP_REUSE_HH
