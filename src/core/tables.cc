#include "core/tables.hh"

#include <algorithm>
#include <functional>
#include <numeric>

#include "support/diagnostics.hh"

namespace ujam
{

namespace
{

/** buildNestTables calls on this thread (nestTableBuilds). */
thread_local std::uint64_t t_table_builds = 0;

/** Lex-ordered leader offsets of a partition of the UGS. */
std::vector<IntVector>
leaderOffsets(const UniformlyGeneratedSet &ugs,
              const std::vector<ReuseGroup> &groups, bool spatial)
{
    std::vector<IntVector> leaders;
    leaders.reserve(groups.size());
    for (const ReuseGroup &group : groups) {
        const ArrayRef &ref = ugs.members[group.leader].ref;
        leaders.push_back(spatial ? ref.spatialOffset() : ref.offset());
    }
    std::sort(leaders.begin(), leaders.end(), IntVectorLexLess());
    return leaders;
}

} // namespace

double
NestTables::mainMemoryAccesses(const IntVector &u,
                               const LocalityParams &params) const
{
    double total = 0.0;
    for (const UgsTables &t : perUgs) {
        total += equationOneAccesses(
            static_cast<double>(t.groupTemporal.at(u)),
            static_cast<double>(t.groupSpatial.at(u)), t.self,
            t.temporalDims, params);
    }
    return total;
}

UnrollTable
computeRegisterTable(const UniformlyGeneratedSet &ugs,
                     const RrsAnalysis &rrs, const UnrollSpace &space)
{
    UnrollTable table(space, 0);
    const std::size_t nsets = rrs.sets.size();

    if (nsets == 0)
        return table;

    // Per-RRS touch-phase interval (integral within a set).
    std::vector<std::int64_t> phase_lo(nsets), phase_hi(nsets);
    for (std::size_t r = 0; r < nsets; ++r) {
        const RegisterReuseSet &set = rrs.sets[r];
        Rational lo = touchPhase(
            ugs.members[set.members.front()].ref.offset(), rrs.innerDim,
            rrs.innerCoeff);
        phase_lo[r] = lo.floor();
        phase_hi[r] = phase_lo[r] + set.registersNeeded - 1;
    }

    // Merges restricted to each MRRS. Def-headed chains never merge
    // into another chain (each store issues) -- except in invariant
    // sets, where coinciding copies are the same location.
    std::vector<IntVector> leaders(nsets);
    std::vector<std::size_t> classes(nsets);
    std::vector<bool> absorbable(nsets);
    const bool invariant = ugs.innerInvariant();
    for (std::size_t r = 0; r < nsets; ++r) {
        leaders[r] = rrs.sets[r].leaderOffset;
        classes[r] = rrs.sets[r].mrrs;
        absorbable[r] = invariant || !rrs.sets[r].generatorIsDef;
    }
    Subspace inner = Subspace::coordinate(space.depth(),
                                          {space.depth() - 1});
    const std::vector<std::vector<MergeEdge>> edges = collectMergeEdges(
        ugs.subscript, leaders, classes, absorbable, inner, space);

    // Fill the table one row at a time, in dense-index order. A row
    // fixes the slower digits at p and walks the fastest digit t from
    // 0 to its limit; the copies of cell (p, t) are the box
    // {(r, (p', t')) : p' <= p, t' <= t}. A merge shift is a fixed
    // nonnegative vector on the unrolled dims, so an edge from a copy
    // at fast digit t lands at fast digit <= t, on the flat index
    // found by subtracting the shift's dot product with the strides.
    // Hence box(p, t) is box(p, t - 1) plus the slab of copies at
    // (p', t), and its chains are box(p, t - 1)'s chains after the
    // slab's unions: union-find carries along the row, a running sum
    // of chain spans gives each cell, and only a new row resets it.
    // With two unrolled dims (slow limit L0) that is
    // points * (L0 + 2) / 2 copy visits.
    const std::size_t npoints = space.size();
    const std::vector<std::size_t> &dims = space.dims();
    const std::vector<std::size_t> &strides = space.strides();
    const std::vector<std::int64_t> &limits = space.limits();
    const std::size_t nslow = dims.empty() ? 0 : dims.size() - 1;
    const std::int64_t fast_limit = dims.empty() ? 0 : limits.back();

    struct FlatEdge
    {
        std::size_t absorber;
        std::size_t indexDelta;
        std::int64_t fast;              // shift on the fastest dim
        std::vector<std::int64_t> slow; // shift on the slower dims
    };
    std::vector<std::vector<FlatEdge>> flat(nsets);
    for (std::size_t k = 0; k < nsets; ++k) {
        for (const MergeEdge &edge : edges[k]) {
            FlatEdge fe{edge.absorber, 0, 0, {}};
            for (std::size_t d = 0; d < dims.size(); ++d) {
                std::int64_t digit = edge.shift[dims[d]];
                fe.indexDelta += static_cast<std::size_t>(digit) * strides[d];
                if (d < nslow)
                    fe.slow.push_back(digit);
                else
                    fe.fast = digit;
            }
            flat[k].push_back(std::move(fe));
        }
    }

    std::vector<std::size_t> parent(nsets * npoints);
    std::vector<std::int64_t> lo(nsets * npoints), hi(nsets * npoints);

    auto find = [&parent](std::size_t x) {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    };
    auto span = [&](std::size_t root) { return hi[root] - lo[root] + 1; };

    // The current row's slower digits, and its slab template: the
    // sub-box p' <= p as dense indices at t = 0 plus their digits.
    std::vector<std::int64_t> row(nslow, 0), cdig(nslow);
    std::vector<std::size_t> slab_index;
    std::vector<std::int64_t> slab_digits; // nslow digits per copy
    const std::size_t row_size = static_cast<std::size_t>(fast_limit) + 1;

    for (std::size_t base = 0; base < npoints; base += row_size) {
        slab_index.clear();
        slab_digits.clear();
        std::fill(cdig.begin(), cdig.end(), 0);
        std::size_t ci = 0;
        for (;;) {
            slab_index.push_back(ci);
            slab_digits.insert(slab_digits.end(), cdig.begin(), cdig.end());
            std::size_t d = nslow;
            while (d > 0 && cdig[d - 1] == row[d - 1]) {
                --d;
                ci -= static_cast<std::size_t>(cdig[d]) * strides[d];
                cdig[d] = 0;
            }
            if (d == 0)
                break;
            ++cdig[d - 1];
            ci += strides[d - 1];
        }

        std::int64_t registers = 0;
        for (std::int64_t t = 0; t <= fast_limit; ++t) {
            // The fastest digit has stride 1. Add the whole slab
            // before any union: an edge with no fast shift lands on it.
            const auto offset = static_cast<std::size_t>(t);
            for (std::size_t r = 0; r < nsets; ++r) {
                for (std::size_t c : slab_index) {
                    std::size_t id = r * npoints + c + offset;
                    parent[id] = id;
                    lo[id] = phase_lo[r];
                    hi[id] = phase_hi[r];
                    registers += span(id);
                }
            }
            for (std::size_t r = 0; r < nsets; ++r) {
                for (std::size_t c = 0; c < slab_index.size(); ++c) {
                    std::size_t ci = slab_index[c] + offset;
                    const std::size_t first = c * nslow;
                    for (const FlatEdge &edge : flat[r]) {
                        bool applies = edge.fast <= t;
                        for (std::size_t d = 0; applies && d < nslow; ++d)
                            applies = edge.slow[d] <= slab_digits[first + d];
                        if (!applies)
                            continue;
                        std::size_t a = find(r * npoints + ci);
                        std::size_t b = find(edge.absorber * npoints +
                                             (ci - edge.indexDelta));
                        if (a == b)
                            continue;
                        registers -= span(a) + span(b);
                        parent[a] = b;
                        lo[b] = std::min(lo[b], lo[a]);
                        hi[b] = std::max(hi[b], hi[a]);
                        registers += span(b);
                    }
                }
            }
            table.atIndex(base + offset) = registers;
        }

        for (std::size_t d = nslow; d-- > 0;) {
            if (row[d] < limits[d]) {
                ++row[d];
                break;
            }
            row[d] = 0;
        }
    }
    return table;
}

std::uint64_t
nestTableBuilds()
{
    return t_table_builds;
}

NestTables
buildNestTables(const LoopNest &nest, const UnrollSpace &space,
                const Subspace &localized)
{
    ++t_table_builds;
    NestTables tables;
    tables.space = space;
    tables.localized = localized;
    tables.rrsTotal = UnrollTable(space, 0);
    tables.registersTotal = UnrollTable(space, 0);

    for (const UniformlyGeneratedSet &ugs : partitionUGS(nest.accesses())) {
        UgsTables t;
        t.memberCount = ugs.members.size();
        t.analyzable = ugs.analyzable();

        t.self = classifySelfReuse(ugs, localized);
        t.innerInvariant = ugs.innerInvariant();
        t.temporalDims =
            ugs.selfTemporalSpace().intersect(localized).dim();

        // Figs. 2-3 need only the merge solver, which handles general
        // (MIV) subscript matrices; the register-reuse machinery below
        // additionally needs SIV separability ([11] section 3.5).

        // Fig. 2: GTS table.
        std::vector<IntVector> gts_leaders = leaderOffsets(
            ugs, groupTemporalSets(ugs, localized), false);
        t.groupTemporal = computeSetCountTable(ugs.subscript, gts_leaders,
                                               localized, space);

        // Fig. 3: GSS table (spatial H, spatially-masked offsets).
        RatMatrix spatial =
            ugs.members.front().ref.spatialSubscriptMatrix();
        std::vector<IntVector> gss_leaders =
            leaderOffsets(ugs, groupSpatialSets(ugs, localized), true);
        t.groupSpatial = computeSetCountTable(spatial, gss_leaders,
                                              localized, space);

        if (!t.analyzable) {
            // No scalar replacement for non-separable references: one
            // memory operation and one register per member copy.
            UnrollTable per_copy(
                space, static_cast<std::int64_t>(ugs.members.size()));
            t.rrs = per_copy.prefixSum();
            t.registers = t.rrs;
            tables.rrsTotal.accumulate(t.rrs);
            tables.registersTotal.accumulate(t.registers);
            tables.perUgs.push_back(std::move(t));
            continue;
        }

        // Figs. 4-5: RRS table, merges confined to MRRSs, localized to
        // the innermost loop only (register reuse is innermost reuse).
        RrsAnalysis rrs = computeRegisterReuseSets(ugs);
        std::vector<IntVector> rrs_leaders(rrs.sets.size());
        std::vector<std::size_t> classes(rrs.sets.size());
        std::vector<bool> absorbable(rrs.sets.size());
        std::vector<std::size_t> order(rrs.sets.size());
        std::iota(order.begin(), order.end(), 0u);
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return rrs.sets[a].leaderOffset.lexLess(
                          rrs.sets[b].leaderOffset);
                  });
        for (std::size_t i = 0; i < order.size(); ++i) {
            const RegisterReuseSet &set = rrs.sets[order[i]];
            rrs_leaders[i] = set.leaderOffset;
            classes[i] = set.mrrs;
            // A def copy always issues its store -- it never merges
            // into an existing chain. Exception: in an innermost-
            // invariant set coinciding copies are literally the same
            // location (one hoisted load/store), so they do merge.
            absorbable[i] = t.innerInvariant || !set.generatorIsDef;
        }
        Subspace inner = Subspace::coordinate(
            nest.depth(), {nest.depth() - 1});
        t.rrs = computeSetCountTablePartitioned(
            ugs.subscript, rrs_leaders, classes, absorbable, inner,
            space);

        // Fig. 7: register table.
        t.registers = computeRegisterTable(ugs, rrs, space);

        // Invariant sets hoist their traffic out of the innermost
        // loop: no VM contribution, only register pressure.
        if (!t.innerInvariant)
            tables.rrsTotal.accumulate(t.rrs);
        tables.registersTotal.accumulate(t.registers);
        tables.perUgs.push_back(std::move(t));
    }
    return tables;
}

} // namespace ujam
