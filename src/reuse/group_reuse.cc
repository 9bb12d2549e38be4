#include "reuse/group_reuse.hh"

#include <algorithm>
#include <numeric>

#include "support/diagnostics.hh"

namespace ujam
{

namespace
{

/** exists x in localized : M x = delta ? */
bool
solvableInSpace(const RatMatrix &matrix, const RatVector &delta,
                const Subspace &localized)
{
    const RatMatrix &basis = localized.basis();
    // Build (dims x L.dim) system M * basis^T.
    RatMatrix system(matrix.rows(), basis.rows());
    for (std::size_t r = 0; r < matrix.rows(); ++r) {
        for (std::size_t j = 0; j < basis.rows(); ++j) {
            Rational coeff;
            for (std::size_t k = 0; k < matrix.cols(); ++k)
                coeff += matrix.at(r, k) * basis.at(j, k);
            system.at(r, j) = coeff;
        }
    }
    return system.solve(delta).has_value();
}

std::vector<ReuseGroup>
partitionByRelation(const UniformlyGeneratedSet &ugs,
                    const RatMatrix &matrix, bool spatial,
                    const Subspace &localized)
{
    const std::size_t n = ugs.members.size();
    std::vector<std::size_t> parent(n);
    std::iota(parent.begin(), parent.end(), 0);

    auto find = [&](std::size_t x) {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    };

    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            if (find(i) == find(j))
                continue;
            IntVector delta =
                ugs.members[j].ref.offset() - ugs.members[i].ref.offset();
            RatVector rhs = toRatVector(delta);
            if (spatial && !rhs.empty())
                rhs[0] = Rational(0);
            if (solvableInSpace(matrix, rhs, localized))
                parent[find(i)] = find(j);
        }
    }

    // Collect groups, order members by lex offset, leader first.
    std::vector<ReuseGroup> groups;
    std::vector<int> group_of(n, -1);
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t root = find(i);
        if (group_of[root] < 0) {
            group_of[root] = static_cast<int>(groups.size());
            groups.emplace_back();
        }
        groups[group_of[root]].members.push_back(i);
    }
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
