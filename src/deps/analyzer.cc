#include "deps/analyzer.hh"

#include <algorithm>
#include <cstdlib>
#include <optional>

#include "analysis/dataflow.hh"
#include "deps/subscript_tests.hh"
#include "support/diagnostics.hh"

namespace ujam
{

namespace
{

/**
 * Bounds facts for the range pre-filter, in the same (possibly
 * normalized) iteration space the pairwise tests run in: loops folded
 * by unitStepped count iterations 1..trip, all others keep their
 * source values.
 */
struct RangeFacts
{
    bool enabled = false;
    bool nestDead = false;      //!< some loop provably runs 0 iterations
    std::vector<Interval> iv;   //!< per-loop induction interval
    //! Max |iv_sink - iv_src| per loop, in the units solveAccessPair
    //! reports exact distances in; nullopt when the trip is unknown.
    std::vector<std::optional<std::int64_t>> maxDelta;
};

RangeFacts
buildRangeFacts(const LoopNest &nest, const DepOptions &options,
                const std::vector<bool> &normalized)
{
    RangeFacts facts;
    facts.enabled = true;
    const std::size_t depth = nest.depth();
    facts.iv.assign(depth, Interval::top());
    facts.maxDelta.assign(depth, std::nullopt);
    for (std::size_t k = 0; k < depth; ++k) {
        const Loop &loop = nest.loop(k);
        std::optional<std::int64_t> trip;
        try {
            trip = loop.tripCount(options.params);
        } catch (const FatalError &) {
            // Symbolic trip under incomplete bindings: no facts here.
        }
        if (trip && *trip <= 0)
            facts.nestDead = true;
        if (normalized[k]) {
            // unitStepped rewrote subscripts for iterations 1..trip;
            // distances are already in iteration units.
            if (trip) {
                facts.iv[k] = Interval::closed(1, *trip);
                facts.maxDelta[k] = *trip - 1;
            }
        } else {
            Interval lo = boundInterval(loop.lower, options.params);
            Interval hi = boundInterval(loop.upper, options.params);
            Interval values;
            values.hasLo = lo.hasLo;
            values.lo = lo.lo;
            values.hasHi = hi.hasHi;
            values.hi = hi.hi;
            if (trip && *trip <= 0)
                values = Interval::empty();
            facts.iv[k] = values;
            // Exact distances here are in induction-value units; the
            // loop covers (trip-1)*step value units end to end.
            if (trip)
                facts.maxDelta[k] = satMul(*trip - 1, loop.step);
        }
    }
    return facts;
}

/** Interval of subscript dimension d of ref over the iv intervals. */
Interval
refDimRange(const ArrayRef &ref, std::size_t d,
            const std::vector<Interval> &iv)
{
    Interval sub = Interval::point(ref.offset()[d]);
    const IntVector &row = ref.row(d);
    for (std::size_t k = 0; k < row.size() && k < iv.size(); ++k) {
        if (row[k] != 0)
            sub = sub.plus(iv[k].scaled(row[k]));
    }
    return sub;
}

/**
 * @return The pre-filter's proof that the otherwise-kept edge between
 * a and b (with the solver's per-loop relations) cannot be real, or
 * empty to keep the edge.
 */
std::string
rangePruneReason(const RangeFacts &facts, const ArrayRef &a,
                 const ArrayRef &b,
                 const std::vector<LoopRelation> &relations)
{
    if (facts.nestDead)
        return "the nest provably runs zero iterations";
    for (std::size_t d = 0; d < a.dims() && d < b.dims(); ++d) {
        Interval ra = refDimRange(a, d, facts.iv);
        Interval rb = refDimRange(b, d, facts.iv);
        if (Interval::disjoint(ra, rb)) {
            return concat("subscript ", d + 1, " ranges ",
                          ra.toString(), " and ", rb.toString(),
                          " are disjoint");
        }
    }
    for (std::size_t k = 0; k < relations.size(); ++k) {
        const LoopRelation &rel = relations[k];
        if (rel.kind != LoopRelation::Kind::Exact || !facts.maxDelta[k])
            continue;
        std::int64_t span = *facts.maxDelta[k];
        std::int64_t dist = rel.exact < 0 ? -rel.exact : rel.exact;
        if (dist > span) {
            return concat("distance ", rel.exact, " at loop ", k + 1,
                          " exceeds the loop's reach of ", span);
        }
    }
    return "";
}

DepKind
classify(bool src_write, bool dst_write)
{
    if (src_write)
        return dst_write ? DepKind::Output : DepKind::Flow;
    return dst_write ? DepKind::Anti : DepKind::Input;
}

/**
 * True when the edge between accesses a and b is the self cycle of a
 * recognized reduction statement (read and write of the accumulator).
 */
bool
isReductionEdge(const LoopNest &nest, const Access &a, const Access &b)
{
    if (a.stmt != b.stmt)
        return false;
    const Stmt &stmt = nest.body()[a.stmt];
    if (!stmt.lhsIsArray() || !stmt.isReduction())
        return false;
    return a.ref == stmt.lhsRef() && b.ref == stmt.lhsRef();
}

} // namespace

DependenceGraph
analyzeDependences(const LoopNest &nest, const DepOptions &options)
{
    const std::size_t depth = nest.depth();
    std::vector<Access> accesses = nest.accesses();
    DependenceGraph graph(depth);

    // Step-aware analysis: fold constant-origin stepped loops into
    // the subscripts so distances come out in iteration (not value)
    // units -- without this, re-analyzing an unroll-and-jammed nest
    // (step u+1) would report spurious unit-stride dependences.
    // Symbolic-origin stepped loops stay as-is (conservative: treated
    // like unit stride, which only over-approximates).
    std::vector<bool> normalized(depth, false);
    for (std::size_t k = 0; k < depth; ++k) {
        const Loop &loop = nest.loop(k);
        if (loop.step == 1 || !loop.lower.isConstant())
            continue;
        normalized[k] = true;
        std::int64_t lb = loop.lower.evaluate({});
        for (Access &access : accesses)
            access.ref = access.ref.unitStepped(k, lb, loop.step);
    }

    RangeFacts range;
    if (options.rangePrune)
        range = buildRangeFacts(nest, options, normalized);

    for (std::size_t i = 0; i < accesses.size(); ++i) {
        for (std::size_t j = i; j < accesses.size(); ++j) {
            const Access &a = accesses[i];
            const Access &b = accesses[j];
            if (a.ref.array() != b.ref.array())
                continue;
            bool both_read = !a.isWrite && !b.isWrite;
            if (both_read && !options.includeInput)
                continue; // the whole point: skip the test entirely

            auto relations = solveAccessPair(a.ref, b.ref);
            if (!relations)
                continue;

            // Partition loops into exactly-known distances and
            // unresolved (Free/Star) dimensions.
            bool all_exact = true;
            IntVector dist(depth);
            std::vector<bool> unknown(depth, false);
            for (std::size_t k = 0; k < depth; ++k) {
                const LoopRelation &rel = (*relations)[k];
                if (rel.kind == LoopRelation::Kind::Exact) {
                    dist[k] = rel.exact;
                } else {
                    unknown[k] = true;
                    all_exact = false;
                }
            }

            // Range pre-filter: drop the pair when bounds prove the
            // solver's relations infeasible. A zero-distance self
            // pair never becomes an edge, so it is never "pruned".
            if (range.enabled &&
                !(all_exact && i == j &&
                  dist.lexCompare(IntVector(depth)) == 0)) {
                std::string reason =
                    rangePruneReason(range, a.ref, b.ref, *relations);
                if (!reason.empty()) {
                    if (options.pruned) {
                        options.pruned->push_back(
                            {i, j, classify(a.isWrite, b.isWrite),
                             std::move(reason)});
                    }
                    continue;
                }
            }

            Dependence edge;
            edge.dirs.assign(depth, DepDir::Eq);
            edge.reduction = isReductionEdge(nest, a, b);

            if (all_exact) {
                int cmp = dist.lexCompare(IntVector(depth));
                if (cmp == 0) {
                    if (i == j)
                        continue; // an access is not dependent on itself
                    edge.src = i;
                    edge.dst = j;
                    edge.kind = classify(a.isWrite, b.isWrite);
                    edge.hasDistance = true;
                    edge.distance = dist;
                    graph.addEdge(std::move(edge));
                    continue;
                }
                bool forward = cmp > 0;
                edge.src = forward ? i : j;
                edge.dst = forward ? j : i;
                const Access &src = accesses[edge.src];
                const Access &dst = accesses[edge.dst];
                edge.kind = classify(src.isWrite, dst.isWrite);
                edge.hasDistance = true;
                edge.distance = forward ? dist : -dist;
                for (std::size_t k = 0; k < depth; ++k) {
                    std::int64_t d = edge.distance[k];
                    edge.dirs[k] = d > 0   ? DepDir::Lt
                                   : d < 0 ? DepDir::Gt
                                           : DepDir::Eq;
                }
                graph.addEdge(std::move(edge));
                continue;
            }

            // Unresolved dimensions: a single Star edge, textual
            // orientation, with a representative distance (0 fills;
            // the leading unknown gets 1 for self dependences so the
            // distance is a valid carried representative).
            edge.src = i;
            edge.dst = j;
            edge.kind = classify(a.isWrite, b.isWrite);
            edge.hasDistance = false;
            edge.representative = true;
            edge.distance = dist;
            bool first_unknown = true;
            for (std::size_t k = 0; k < depth; ++k) {
                if (!unknown[k]) {
                    std::int64_t d = dist[k];
                    edge.dirs[k] = d > 0   ? DepDir::Lt
                                   : d < 0 ? DepDir::Gt
                                           : DepDir::Eq;
                    continue;
                }
                edge.dirs[k] = DepDir::Star;
                if (i == j && first_unknown)
                    edge.distance[k] = 1;
                first_unknown = false;
            }
            graph.addEdge(std::move(edge));
        }
    }
    return graph;
}

IntVector
safeUnrollBounds(const LoopNest &nest, const DependenceGraph &graph,
                 std::int64_t cap,
                 std::vector<UnrollConstraint> *constraints)
{
    const std::size_t depth = nest.depth();
    IntVector bounds(depth);
    for (std::size_t k = 0; k + 1 < depth; ++k)
        bounds[k] = cap;
    if (depth > 0)
        bounds[depth - 1] = 0; // the innermost loop is never unrolled

    for (std::size_t e = 0; e < graph.edges().size(); ++e) {
        const Dependence &edge = graph.edges()[e];
        // Reordering two reads is always legal; reduction self-cycles
        // may be reassociated.
        if (edge.reduction || edge.kind == DepKind::Input)
            continue;

        bool has_star = false;
        for (std::size_t m = 0; m < depth; ++m) {
            if (edge.dirs[m] == DepDir::Star)
                has_star = true;
        }

        // A '*' component admits concrete pairs in either textual
        // order, so the mirrored direction vector must be checked as
        // well; exact edges are already oriented source-first and
        // have no mirror. Likewise a '*' includes '=', so any level
        // whose outer components all admit '=' can be the carrier --
        // not just the outermost non-'=' one.
        for (int sign = +1; sign >= (has_star ? -1 : +1); sign -= 2) {
            auto effective = [&](std::size_t m) {
                DepDir dir = edge.dirs[m];
                if (sign < 0 && dir == DepDir::Lt)
                    return DepDir::Gt;
                if (sign < 0 && dir == DepDir::Gt)
                    return DepDir::Lt;
                return dir;
            };
            for (std::size_t level = 0; level + 1 < depth; ++level) {
                // Unrolling `level` hoists the remainder iterations
                // into a fringe nest that runs after the main nest
                // has finished every outer iteration. A pair carried
                // at some outer loop whose component at `level`
                // points backward would then be reversed no matter
                // how small the unroll amount.
                bool outer_carrier = false;
                for (std::size_t m = 0; m < level; ++m) {
                    DepDir dir = effective(m);
                    if (dir == DepDir::Lt || dir == DepDir::Star)
                        outer_carrier = true;
                    if (dir == DepDir::Lt || dir == DepDir::Gt)
                        break; // fixed nonzero: no deeper carrier
                }
                if (outer_carrier &&
                    (effective(level) == DepDir::Gt ||
                     effective(level) == DepDir::Star)) {
                    bounds[level] = 0;
                    if (constraints)
                        constraints->push_back({level, e, 0, true});
                    continue;
                }

                // Loop `level` carries a pair of this edge only when
                // it can run '<' with every outer component '='.
                bool feasible = effective(level) == DepDir::Lt ||
                                effective(level) == DepDir::Star;
                for (std::size_t m = 0; feasible && m < level; ++m) {
                    feasible = effective(m) == DepDir::Eq ||
                               effective(m) == DepDir::Star;
                }
                if (!feasible)
                    continue;

                bool inner_hazard = false;
                for (std::size_t m = level + 1; m < depth; ++m) {
                    if (effective(m) == DepDir::Gt ||
                        effective(m) == DepDir::Star) {
                        inner_hazard = true;
                        break;
                    }
                }
                if (!inner_hazard)
                    continue;

                std::int64_t limit = 0;
                if (effective(level) == DepDir::Lt && edge.hasDistance)
                    limit = std::max<std::int64_t>(
                        0, std::abs(edge.distance[level]) - 1);
                if (constraints && limit < cap)
                    constraints->push_back({level, e, limit, false});
                bounds[level] = std::min(bounds[level], limit);
            }
        }
    }
    return bounds;
}

IntVector
safeUnrollBounds(const LoopNest &nest, const DependenceGraph &graph,
                 std::int64_t cap)
{
    return safeUnrollBounds(nest, graph, cap, nullptr);
}

} // namespace ujam
