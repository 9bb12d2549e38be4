#include "core/set_tables.hh"

#include "linalg/merge_solver.hh"
#include "support/diagnostics.hh"

namespace ujam
{

std::vector<std::vector<MergeEdge>>
collectMergeEdges(const RatMatrix &subscript,
                  const std::vector<IntVector> &leaders,
                  const std::vector<std::size_t> &partition,
                  const std::vector<bool> &absorbable,
                  const Subspace &localized, const UnrollSpace &space)
{
    const std::size_t n = leaders.size();
    std::vector<std::vector<MergeEdge>> edges(n);

    auto same_class = [&](std::size_t a, std::size_t b) {
        return partition.empty() || partition[a] == partition[b];
    };

    // Self-absorption: a leader whose copies coincide with its own
    // earlier copies along some unrolled dim (e.g. B(I) under an
    // unrolled J loop) stops contributing after the first copy. That
    // happens when exists x in L : H(e_dim + x) = 0, which does not
    // depend on the leader.
    const MergeSolver self_solver(
        subscript, localized, std::vector<bool>(space.depth(), false));
    std::vector<IntVector> self_shifts;
    for (std::size_t dim : space.dims()) {
        IntVector unit(space.depth());
        unit[dim] = 1;
        RatVector image = subscript.apply(unit);
        IntVector target(subscript.rows());
        bool integral = true;
        for (std::size_t r = 0; r < image.size(); ++r) {
            if (!image[r].isInteger()) {
                integral = false;
                break;
            }
            target[r] = -image[r].toInteger();
        }
        if (integral && self_solver.shift(target).has_value())
            self_shifts.push_back(std::move(unit));
    }

    const MergeSolver pair_solver(subscript, localized,
                                  space.unrollableFlags());
    for (std::size_t k = 0; k < n; ++k) {
        if (!absorbable.empty() && !absorbable[k])
            continue; // e.g. a def-headed RRS: its copies always count
        for (const IntVector &unit : self_shifts)
            edges[k].push_back({k, unit});

        // Pairwise absorption: copies of k coincide with copies of j
        // at offset u' - u* where H u* = cj - ck (mod localized).
        for (std::size_t j = 0; j < n; ++j) {
            if (j == k || !same_class(j, k))
                continue;
            auto shift = pair_solver.shift(leaders[j] - leaders[k]);
            if (!shift.has_value() || shift->isZero())
                continue;
            if (shift->allLessEq(space.maxVector()))
                edges[k].push_back({j, *shift});
        }
    }
    return edges;
}

namespace
{

UnrollTable
buildTable(const RatMatrix &subscript,
           const std::vector<IntVector> &leaders,
           const std::vector<std::size_t> &partition,
           const std::vector<bool> &absorbable,
           const Subspace &localized, const UnrollSpace &space)
{
    const std::size_t n = leaders.size();
    auto edges = collectMergeEdges(subscript, leaders, partition,
                                   absorbable, localized, space);

    // new_sets[u'] = number of leaders whose copy at offset u' starts
    // a new set (initialized to all of them, decremented once per
    // absorbed leader). A leader is absorbed at u' when any of its
    // shifts fits below u': the union of the shifts' upward boxes.
    // Mark that union with stride-walk box adds into a scratch table
    // (re-zeroed per leader) instead of decoding every space point
    // per leader.
    UnrollTable new_sets(space, static_cast<std::int64_t>(n));
    UnrollTable marked(space, 0);
    for (std::size_t k = 0; k < n; ++k) {
        if (edges[k].empty())
            continue;
        marked.fill(0);
        for (const MergeEdge &edge : edges[k])
            marked.addBox(edge.shift, 1);
        for (std::size_t i = 0; i < space.size(); ++i) {
            if (marked.atIndex(i) > 0)
                new_sets.atIndex(i) -= 1;
        }
    }
    return new_sets.prefixSum();
}

} // namespace

UnrollTable
computeSetCountTable(const RatMatrix &subscript,
                     const std::vector<IntVector> &leaders,
                     const Subspace &localized, const UnrollSpace &space)
{
    return buildTable(subscript, leaders, {}, {}, localized, space);
}

UnrollTable
computeSetCountTablePartitioned(const RatMatrix &subscript,
                                const std::vector<IntVector> &leaders,
                                const std::vector<std::size_t> &partition,
                                const std::vector<bool> &absorbable,
                                const Subspace &localized,
                                const UnrollSpace &space)
{
    UJAM_ASSERT(partition.size() == leaders.size(),
                "partition/leader size mismatch");
    UJAM_ASSERT(absorbable.size() == leaders.size(),
                "absorbable/leader size mismatch");
    return buildTable(subscript, leaders, partition, absorbable,
                      localized, space);
}

} // namespace ujam
