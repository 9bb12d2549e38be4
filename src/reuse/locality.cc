#include "reuse/locality.hh"

#include <algorithm>
#include <cmath>

#include "support/diagnostics.hh"

namespace ujam
{

const char *
selfReuseName(SelfReuse kind)
{
    switch (kind) {
      case SelfReuse::None:
        return "none";
      case SelfReuse::Spatial:
        return "spatial";
      case SelfReuse::Temporal:
        return "temporal";
    }
    return "?";
}

SelfReuse
classifySelfReuse(const UniformlyGeneratedSet &ugs,
                  const Subspace &localized)
{
    if (!ugs.selfTemporalSpace().intersect(localized).isZero())
        return SelfReuse::Temporal;
    if (!ugs.selfSpatialSpace().intersect(localized).isZero())
        return SelfReuse::Spatial;
    return SelfReuse::None;
}

double
selfReuseFactor(SelfReuse kind, const LocalityParams &params,
                std::size_t temporal_dims)
{
    switch (kind) {
      case SelfReuse::None:
        return 1.0;
      case SelfReuse::Spatial:
        return 1.0 / static_cast<double>(params.cacheLineElems);
      case SelfReuse::Temporal:
        return 1.0 /
               std::pow(params.localizedTrip,
                        static_cast<double>(std::max<std::size_t>(
                            temporal_dims, 1)));
    }
    panic("unknown self-reuse kind");
}

double
equationOneAccesses(double group_temporal, double group_spatial,
                    SelfReuse self, std::size_t temporal_dims,
                    const LocalityParams &params)
{
    UJAM_ASSERT(group_spatial <= group_temporal + 1e-9,
                "GSS partition must be coarser than GTS partition");
    double line = static_cast<double>(params.cacheLineElems);
    double streams =
        group_spatial + (group_temporal - group_spatial) / line;
    return streams * selfReuseFactor(self, params, temporal_dims);
}

double
ugsAccessesPerIteration(const UniformlyGeneratedSet &ugs,
                        const Subspace &localized,
                        const LocalityParams &params)
{
    if (!ugs.analyzable()) {
        // Non-separable references: assume no exploitable reuse; each
        // member is its own stream with a miss per iteration.
        return static_cast<double>(ugs.members.size());
    }
    std::size_t gt = groupTemporalSets(ugs, localized).size();
    std::size_t gs = groupSpatialSets(ugs, localized).size();
    SelfReuse self = classifySelfReuse(ugs, localized);
    std::size_t temporal_dims =
        ugs.selfTemporalSpace().intersect(localized).dim();
    return equationOneAccesses(static_cast<double>(gt),
                               static_cast<double>(gs), self,
                               temporal_dims, params);
}

double
nestMemoryCost(const LoopNest &nest, const Subspace &localized,
               const LocalityParams &params)
{
    double total = 0.0;
    for (const UniformlyGeneratedSet &ugs : partitionUGS(nest.accesses()))
        total += ugsAccessesPerIteration(ugs, localized, params);
    return total;
}

std::vector<std::size_t>
rankUnrollCandidates(const LoopNest &nest, const LocalityParams &params,
                     std::size_t max_loops)
{
    const std::size_t depth = nest.depth();
    if (depth < 2 || max_loops == 0)
        return {};

    Subspace inner = Subspace::coordinate(depth, {depth - 1});
    double base_cost = nestMemoryCost(nest, inner, params);

    std::vector<std::pair<double, std::size_t>> ranked;
    for (std::size_t k = 0; k + 1 < depth; ++k) {
        Subspace widened = Subspace::coordinate(depth, {k, depth - 1});
        double benefit = base_cost - nestMemoryCost(nest, widened, params);
        ranked.emplace_back(benefit, k);
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });

    std::vector<std::size_t> result;
    for (const auto &[benefit, k] : ranked) {
        if (result.size() >= max_loops)
            break;
        result.push_back(k);
    }
    return result;
}

} // namespace ujam
