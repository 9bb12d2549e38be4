#include "reuse/group_reuse.hh"

#include <algorithm>
#include <map>

#include "support/diagnostics.hh"

namespace ujam
{

namespace
{

/**
 * Members i and j share a set when exists x in localized with
 * M x = c_j - c_i, i.e. when c_j - c_i lies in the column space of
 * A = M L^T. The rows N of A's left null space (the kernel of
 * A^T = L M^T) vanish exactly on that column space, so two members
 * share a set exactly when N c_i = N c_j: one elimination per
 * partition, then a group-by on the key N c (first offset component
 * zeroed for spatial sets).
 */
std::vector<ReuseGroup>
partitionByRelation(const UniformlyGeneratedSet &ugs,
                    const RatMatrix &matrix, bool spatial,
                    const Subspace &localized)
{
    const RatMatrix left_null =
        localized.basis().multiply(matrix.transpose()).kernelBasis();

    // Groups in order of their first member; members in index order.
    std::vector<ReuseGroup> groups;
    std::map<RatVector, std::size_t> group_of;
    for (std::size_t i = 0; i < ugs.members.size(); ++i) {
        const ArrayRef &ref = ugs.members[i].ref;
        auto [it, fresh] = group_of.try_emplace(
            left_null.apply(spatial ? ref.spatialOffset() : ref.offset()),
            groups.size());
        if (fresh)
            groups.emplace_back();
        groups[it->second].members.push_back(i);
    }

    // Order members by lex offset, leader first.
    for (ReuseGroup &group : groups) {
        std::stable_sort(group.members.begin(), group.members.end(),
                         [&](std::size_t a, std::size_t b) {
                             return ugs.members[a].ref.offset().lexLess(
                                 ugs.members[b].ref.offset());
                         });
        group.leader = group.members.front();
    }
    return groups;
}

} // namespace

std::vector<ReuseGroup>
groupTemporalSets(const UniformlyGeneratedSet &ugs,
                  const Subspace &localized)
{
    return partitionByRelation(ugs, ugs.subscript, false, localized);
}

std::vector<ReuseGroup>
groupSpatialSets(const UniformlyGeneratedSet &ugs,
                 const Subspace &localized)
{
    UJAM_ASSERT(!ugs.members.empty(), "empty uniformly generated set");
    RatMatrix spatial = ugs.members.front().ref.spatialSubscriptMatrix();
    return partitionByRelation(ugs, spatial, true, localized);
}

} // namespace ujam
