#include "transform/prefetch_insertion.hh"

#include <algorithm>

#include "ir/validate.hh"
#include "reuse/group_reuse.hh"
#include "reuse/locality.hh"
#include "support/diagnostics.hh"

namespace ujam
{

PrefetchResult
insertPrefetches(const LoopNest &nest, const PrefetchConfig &config)
{
    PrefetchResult result;
    result.nest = nest;
    const std::size_t depth = nest.depth();
    if (depth == 0)
        return result;

    Subspace inner = Subspace::coordinate(depth, {depth - 1});
    std::vector<Stmt> prefetches;

    for (const UniformlyGeneratedSet &ugs : partitionUGS(nest.accesses())) {
        if (!ugs.analyzable())
            continue;
        // Innermost-invariant or self-temporal sets live in registers
        // or cache already; only streaming sets need prefetching.
        if (ugs.innerInvariant() ||
            classifySelfReuse(ugs, inner) == SelfReuse::Temporal) {
            continue;
        }

        // The prefetch distance expressed as an innermost shift; keep
        // the resulting subscript inside the interpreter's guard halo.
        auto [dim, coeff] =
            ugs.members.front().ref.termForLoop(depth - 1);
        std::int64_t distance = config.distanceIters;
        if (dim >= 0 && coeff != 0) {
            std::int64_t reach =
                ArrayLayout::haloElems / std::max<std::int64_t>(
                                             1, std::llabs(coeff));
            distance = std::min(distance, reach);
        }
        if (distance <= 0)
            continue;
        IntVector shift(depth);
        shift[depth - 1] = distance;

        // One prefetch per group-spatial stream: every leader walks a
        // distinct sequence of cache lines.
        for (const ReuseGroup &group : groupSpatialSets(ugs, inner)) {
            const ArrayRef &leader = ugs.members[group.leader].ref;
            prefetches.push_back(Stmt::prefetch(leader.shifted(shift)));
        }
    }

    if (prefetches.empty())
        return result;
    result.prefetchesInserted = prefetches.size();
    std::vector<Stmt> body = std::move(result.nest.body());
    body.insert(body.begin(), prefetches.begin(), prefetches.end());
    result.nest.body() = std::move(body);
    return result;
}

} // namespace ujam
