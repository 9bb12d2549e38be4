/**
 * @file
 * Unit and property tests for dependence analysis.
 *
 * The property test checks the analyzer against a brute-force oracle
 * that enumerates small concrete iteration spaces and records every
 * actual same-location access pair.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "deps/analyzer.hh"
#include "deps/subscript_tests.hh"
#include "ir/builder.hh"
#include "parser/parser.hh"
#include "support/diagnostics.hh"
#include "support/rng.hh"
#include "workloads/suite.hh"

namespace ujam
{
namespace
{

LoopNest
nestFrom(const char *source)
{
    return parseSingleNest(source);
}

TEST(SubscriptTests, ZivIndependent)
{
    // a(i, 1) vs a(i, 2): never the same element.
    NestBuilder b;
    b.loop("j", 1, 4).loop("i", 1, 4);
    ArrayRef r1 = b.ref("a", {idx("i"), Subscript::constant(1)});
    ArrayRef r2 = b.ref("a", {idx("i"), Subscript::constant(2)});
    EXPECT_FALSE(solveAccessPair(r1, r2).has_value());
}

TEST(SubscriptTests, StrongSivDistance)
{
    NestBuilder b;
    b.loop("j", 1, 4).loop("i", 1, 4);
    ArrayRef r1 = b.ref("a", {idx("i"), idx("j")});
    ArrayRef r2 = b.ref("a", {idx("i", -1), idx("j", 2)});
    auto rel = solveAccessPair(r1, r2);
    ASSERT_TRUE(rel.has_value());
    // i = i' - 1  => i' - i = 1; j = j' + 2 => j' - j = -2.
    EXPECT_EQ((*rel)[0].kind, LoopRelation::Kind::Exact);
    EXPECT_EQ((*rel)[0].exact, -2);
    EXPECT_EQ((*rel)[1].kind, LoopRelation::Kind::Exact);
    EXPECT_EQ((*rel)[1].exact, 1);
}

TEST(SubscriptTests, StrongSivNonIntegerIndependent)
{
    NestBuilder b;
    b.loop("i", 1, 8);
    ArrayRef r1 = b.ref("a", {scaled("i", 2)});
    ArrayRef r2 = b.ref("a", {scaled("i", 2, 1)});
    EXPECT_FALSE(solveAccessPair(r1, r2).has_value());
}

TEST(SubscriptTests, WeakZeroIsStar)
{
    NestBuilder b;
    b.loop("i", 1, 8);
    ArrayRef fixed = b.ref("a", {Subscript::constant(3)});
    ArrayRef moving = b.ref("a", {idx("i")});
    auto rel = solveAccessPair(moving, fixed);
    ASSERT_TRUE(rel.has_value());
    EXPECT_EQ((*rel)[0].kind, LoopRelation::Kind::Star);
}

TEST(SubscriptTests, WeakCrossing)
{
    // a(i) vs a(10 - i): crossing; feasible, direction unknown.
    NestBuilder b;
    b.loop("i", 1, 8);
    ArrayRef r1 = b.ref("a", {idx("i")});
    ArrayRef r2 = b.ref("a", {scaled("i", -1, 10)});
    auto rel = solveAccessPair(r1, r2);
    ASSERT_TRUE(rel.has_value());
    EXPECT_EQ((*rel)[0].kind, LoopRelation::Kind::Star);
}

TEST(SubscriptTests, GcdInfeasible)
{
    // a(2i) vs a(2i'+1): parity mismatch.
    NestBuilder b;
    b.loop("i", 1, 8);
    ArrayRef even = b.ref("a", {scaled("i", 2)});
    ArrayRef odd = b.ref("a", {scaled("i", 2, 1)});
    EXPECT_FALSE(solveAccessPair(even, odd).has_value());
}

TEST(SubscriptTests, MivGcdFeasibleIsStar)
{
    // a(i + j) style coupling via two different loops in one dim is
    // not SIV separable per reference, but the pair test still works:
    // a(2i) vs a(j).
    NestBuilder b;
    b.loop("j", 1, 8).loop("i", 1, 8);
    ArrayRef r1 = b.ref("a", {scaled("i", 2)});
    ArrayRef r2 = b.ref("a", {idx("j")});
    auto rel = solveAccessPair(r1, r2);
    ASSERT_TRUE(rel.has_value());
    EXPECT_EQ((*rel)[0].kind, LoopRelation::Kind::Star);
    EXPECT_EQ((*rel)[1].kind, LoopRelation::Kind::Star);
}

TEST(SubscriptTests, UnconstrainedLoopStaysFree)
{
    NestBuilder b;
    b.loop("j", 1, 4).loop("i", 1, 4);
    ArrayRef r1 = b.ref("a", {idx("i")});
    ArrayRef r2 = b.ref("a", {idx("i", -1)});
    auto rel = solveAccessPair(r1, r2);
    ASSERT_TRUE(rel.has_value());
    EXPECT_EQ((*rel)[0].kind, LoopRelation::Kind::Free);
    EXPECT_EQ((*rel)[1].kind, LoopRelation::Kind::Exact);
    EXPECT_EQ((*rel)[1].exact, 1);
}

TEST(Analyzer, StencilFlowDependence)
{
    LoopNest nest = nestFrom(R"(
do j = 1, 10
  do i = 1, 10
    a(i, j) = a(i, j-1) + 1.0
  end do
end do
)");
    DependenceGraph graph = analyzeDependences(nest);
    // Expect: flow a(i,j) -> a(i,j-1) read at distance (1, 0), plus
    // the input self/pair edges? a(i,j-1) vs a(i,j-1) has no self dep
    // (all loops constrained, d = 0). Reads: only a(i,j-1); one read,
    // no read-read pair other than itself.
    ASSERT_EQ(graph.size(), 1u);
    const Dependence &edge = graph.edges()[0];
    EXPECT_EQ(edge.kind, DepKind::Flow);
    EXPECT_TRUE(edge.hasDistance);
    EXPECT_EQ(edge.distance, (IntVector{1, 0}));
    EXPECT_EQ(edge.dirs[0], DepDir::Lt);
    EXPECT_EQ(edge.dirs[1], DepDir::Eq);
}

TEST(Analyzer, InputDependencesCountedAndSkippable)
{
    LoopNest nest = nestFrom(R"(
do j = 1, 10
  do i = 1, 10
    a(i, j) = b(i, j) + b(i, j-1) + b(i, j-2)
  end do
end do
)");
    DependenceGraph with_input = analyzeDependences(nest);
    // b pairs: (b0,b1) d=(1,0), (b0,b2) d=(2,0), (b1,b2) d=(1,0):
    // three input edges; 'a' has no dependence.
    EXPECT_EQ(with_input.size(), 3u);
    EXPECT_EQ(with_input.inputCount(), 3u);

    DepOptions no_input;
    no_input.includeInput = false;
    DependenceGraph without = analyzeDependences(nest, no_input);
    EXPECT_EQ(without.size(), 0u);
    EXPECT_LT(without.storageBytes(), with_input.storageBytes());
}

TEST(Analyzer, LoopInvariantSelfInputDependence)
{
    LoopNest nest = nestFrom(R"(
do j = 1, 10
  do i = 1, 10
    a(i, j) = c(i)
  end do
end do
)");
    DependenceGraph graph = analyzeDependences(nest);
    // c(i) reused across j: input self dependence with dir (*, =).
    ASSERT_EQ(graph.size(), 1u);
    const Dependence &edge = graph.edges()[0];
    EXPECT_EQ(edge.kind, DepKind::Input);
    EXPECT_EQ(edge.src, edge.dst);
    EXPECT_EQ(edge.dirs[0], DepDir::Star);
    EXPECT_EQ(edge.dirs[1], DepDir::Eq);
    EXPECT_FALSE(edge.hasDistance);
    EXPECT_TRUE(edge.representative);
    EXPECT_EQ(edge.distance, (IntVector{1, 0}));
}

TEST(Analyzer, ReductionEdgesTagged)
{
    LoopNest nest = nestFrom(R"(
do j = 1, 10
  do i = 1, 10
    s(j) = s(j) + b(i, j)
  end do
end do
)");
    DependenceGraph graph = analyzeDependences(nest);
    ASSERT_GT(graph.size(), 0u);
    std::size_t reduction_edges = 0;
    for (const Dependence &edge : graph.edges())
        reduction_edges += edge.reduction;
    // read s(j) vs write s(j): flow+anti collapse into Star edges
    // across i, plus the write-write self edge: all tagged.
    EXPECT_GE(reduction_edges, 2u);
}

TEST(Analyzer, AntiDependenceOrientation)
{
    LoopNest nest = nestFrom(R"(
do i = 1, 10
  do k = 1, 10
    a(i, k) = a(i+1, k) * 0.5
  end do
end do
)");
    DependenceGraph graph = analyzeDependences(nest);
    ASSERT_EQ(graph.size(), 1u);
    const Dependence &edge = graph.edges()[0];
    // Read a(i+1,k) at iteration i touches what the write touches at
    // i+1: read first -> anti dependence, distance (1, 0).
    EXPECT_EQ(edge.kind, DepKind::Anti);
    EXPECT_EQ(edge.distance, (IntVector{1, 0}));
}

TEST(SafeUnroll, CleanStencilUnbounded)
{
    LoopNest nest = nestFrom(R"(
do j = 1, 10
  do i = 1, 10
    a(i, j) = a(i, j-1) + 1.0
  end do
end do
)");
    DependenceGraph graph = analyzeDependences(nest);
    IntVector bounds = safeUnrollBounds(nest, graph, 8);
    EXPECT_EQ(bounds, (IntVector{8, 0}));
}

TEST(SafeUnroll, InterchangePreventingDependenceLimits)
{
    // a(i, j) = a(i+1, j-1): dep distance (1, -1): carried by j with
    // inner '>': unroll-and-jam of j illegal beyond distance-1 = 0.
    LoopNest nest = nestFrom(R"(
do j = 1, 10
  do i = 1, 10
    a(i, j) = a(i+1, j-1)
  end do
end do
)");
    DependenceGraph graph = analyzeDependences(nest);
    IntVector bounds = safeUnrollBounds(nest, graph, 8);
    EXPECT_EQ(bounds[0], 0);
}

TEST(SafeUnroll, DistanceGivesPartialFreedom)
{
    // dep distance (3, -1): jamming up to 2 copies stays legal.
    LoopNest nest = nestFrom(R"(
do j = 1, 20
  do i = 1, 20
    a(i, j) = a(i+1, j-3)
  end do
end do
)");
    DependenceGraph graph = analyzeDependences(nest);
    IntVector bounds = safeUnrollBounds(nest, graph, 8);
    EXPECT_EQ(bounds[0], 2);
}

TEST(SafeUnroll, ReductionDoesNotConstrain)
{
    LoopNest nest = nestFrom(R"(
do j = 1, 10
  do i = 1, 10
    s(i) = s(i) + a(i, j)
  end do
end do
)");
    DependenceGraph graph = analyzeDependences(nest);
    IntVector bounds = safeUnrollBounds(nest, graph, 8);
    EXPECT_EQ(bounds[0], 8);
}

TEST(GraphStats, EdgeBytesGrowWithDepth)
{
    EXPECT_GT(DependenceGraph::edgeBytes(3), DependenceGraph::edgeBytes(1));
    EXPECT_GE(DependenceGraph::edgeBytes(1), 48u);
}

// --- brute-force oracle property test -----------------------------------

/**
 * Enumerate a small concrete iteration space and record which ordered
 * access pairs (src textual-or-iteration earlier) touch the same
 * address, keyed by (src ordinal, dst ordinal, kind).
 */
std::set<std::tuple<std::size_t, std::size_t, DepKind>>
bruteForcePairs(const LoopNest &nest, std::int64_t extent)
{
    std::vector<Access> accesses = nest.accesses();
    const std::size_t depth = nest.depth();

    // Iterate the space; track, per address, every (ordinal, time).
    struct Touch
    {
        std::size_t ordinal;
        bool write;
        std::uint64_t time;
    };
    std::map<std::pair<std::string, std::int64_t>, std::vector<Touch>>
        touches;

    std::vector<std::int64_t> iv(depth, 1);
    std::uint64_t time = 0;
    for (;;) {
        for (const Access &access : accesses) {
            std::int64_t flat = 0;
            std::int64_t stride = 1;
            for (std::size_t d = 0; d < access.ref.dims(); ++d) {
                std::int64_t sub = access.ref.offset()[d];
                for (std::size_t k = 0; k < depth; ++k)
                    sub += access.ref.row(d)[k] * iv[k];
                flat += sub * stride;
                stride *= 1024;
            }
            touches[{access.ref.array(), flat}].push_back(
                {access.ordinal, access.isWrite, time++});
        }
        // Advance odometer (innermost fastest).
        std::size_t k = depth;
        while (k > 0) {
            --k;
            if (++iv[k] <= extent)
                break;
            iv[k] = 1;
            if (k == 0)
                return [&] {
                    std::set<std::tuple<std::size_t, std::size_t, DepKind>>
                        pairs;
                    for (const auto &[addr, list] : touches) {
                        for (std::size_t x = 0; x < list.size(); ++x) {
                            for (std::size_t y = x + 1; y < list.size();
                                 ++y) {
                                DepKind kind =
                                    list[x].write
                                        ? (list[y].write ? DepKind::Output
                                                         : DepKind::Flow)
                                        : (list[y].write ? DepKind::Anti
                                                         : DepKind::Input);
                                pairs.insert({list[x].ordinal,
                                              list[y].ordinal, kind});
                            }
                        }
                    }
                    return pairs;
                }();
        }
    }
}

/**
 * Every concretely-observed dependence pair must be covered by some
 * edge of the analyzer's graph (analysis must be conservative).
 */
void
expectGraphCovers(const LoopNest &nest)
{
    DependenceGraph graph = analyzeDependences(nest);
    auto observed = bruteForcePairs(nest, 4);
    for (const auto &[src, dst, kind] : observed) {
        bool covered = false;
        for (const Dependence &edge : graph.edges()) {
            // An edge covers the pair if it connects the same two
            // ordinals (in either orientation) with the same kind.
            bool same_pair = (edge.src == src && edge.dst == dst) ||
                             (edge.src == dst && edge.dst == src);
            if (same_pair && edge.kind == kind)
                covered = true;
        }
        EXPECT_TRUE(covered)
            << "missed " << depKindName(kind) << " between ordinals "
            << src << " and " << dst << " in nest:\n"
            << nest.name();
    }
}

class DepCoverage : public ::testing::TestWithParam<int>
{};

TEST_P(DepCoverage, AnalyzerCoversBruteForce)
{
    Rng rng(1000 + GetParam());
    // Random 2-deep nest over one array with small offsets.
    NestBuilder b;
    b.loop("j", 1, 4).loop("i", 1, 4);

    auto random_ref = [&]() {
        return b.ref("a", {idx("i", rng.range(-2, 2)),
                           idx("j", rng.range(-2, 2))});
    };
    ExprPtr rhs = Expr::arrayRead(random_ref());
    int extra = static_cast<int>(rng.range(1, 3));
    for (int r = 0; r < extra; ++r)
        rhs = add(rhs, Expr::arrayRead(random_ref()));
    ArrayRef lhs = random_ref();
    b.assign("a", {idx("i", lhs.offset()[0]), idx("j", lhs.offset()[1])},
             rhs);
    LoopNest nest = b.name(concat("random", GetParam())).build();
    expectGraphCovers(nest);
}

INSTANTIATE_TEST_SUITE_P(RandomNests, DepCoverage,
                         ::testing::Range(0, 25));

// --- range pre-filter differential over the suite -------------------

/**
 * Like bruteForcePairs, but honoring the nest's own bounds (including
 * steps and aligned uppers) evaluated under the given bindings --
 * exactly the iteration space the range pre-filter reasons about.
 */
std::set<std::tuple<std::size_t, std::size_t, DepKind>>
observedPairs(const LoopNest &nest, const ParamBindings &params)
{
    std::vector<Access> accesses = nest.accesses();
    const std::size_t depth = nest.depth();

    std::vector<std::int64_t> lo(depth), hi(depth), step(depth);
    for (std::size_t k = 0; k < depth; ++k) {
        lo[k] = nest.loop(k).lower.evaluate(params);
        hi[k] = nest.loop(k).upper.evaluate(params);
        step[k] = std::max<std::int64_t>(1, nest.loop(k).step);
        if (lo[k] > hi[k])
            return {}; // a zero-trip loop empties the whole nest
    }

    struct Touch
    {
        std::size_t ordinal;
        bool write;
        std::uint64_t time;
    };
    std::map<std::pair<std::string, std::int64_t>, std::vector<Touch>>
        touches;

    std::vector<std::int64_t> iv = lo;
    std::uint64_t time = 0;
    bool more = true;
    while (more) {
        for (const Access &access : accesses) {
            std::int64_t flat = 0;
            std::int64_t stride = 1;
            for (std::size_t d = 0; d < access.ref.dims(); ++d) {
                std::int64_t sub = access.ref.offset()[d];
                for (std::size_t k = 0;
                     k < depth && k < access.ref.row(d).size(); ++k) {
                    sub += access.ref.row(d)[k] * iv[k];
                }
                flat += sub * stride;
                stride *= 4096;
            }
            touches[{access.ref.array(), flat}].push_back(
                {access.ordinal, access.isWrite, time++});
        }
        std::size_t k = depth;
        more = false;
        while (k > 0) {
            --k;
            iv[k] += step[k];
            if (iv[k] <= hi[k]) {
                more = true;
                break;
            }
            iv[k] = lo[k];
        }
    }

    std::set<std::tuple<std::size_t, std::size_t, DepKind>> pairs;
    for (const auto &[addr, list] : touches) {
        for (std::size_t x = 0; x < list.size(); ++x) {
            for (std::size_t y = x + 1; y < list.size(); ++y) {
                DepKind kind =
                    list[x].write
                        ? (list[y].write ? DepKind::Output
                                         : DepKind::Flow)
                        : (list[y].write ? DepKind::Anti
                                         : DepKind::Input);
                pairs.insert(
                    {list[x].ordinal, list[y].ordinal, kind});
            }
        }
    }
    return pairs;
}

TEST(RangePrune, SuitePrunedGraphIsAnExactPartitionAtDefaults)
{
    // With and without the pre-filter, over every suite loop: each
    // edge is either kept or reported pruned, never silently dropped.
    for (const SuiteLoop &loop : testSuite()) {
        Program program = loadSuiteProgram(loop);
        const LoopNest &nest = program.nests()[0];

        DepOptions base;
        base.includeInput = false; // the optimizer's view
        DependenceGraph full = analyzeDependences(nest, base);

        DepOptions filtered = base;
        filtered.rangePrune = true;
        filtered.params = program.paramDefaults();
        std::vector<PrunedEdge> pruned;
        filtered.pruned = &pruned;
        DependenceGraph sharp = analyzeDependences(nest, filtered);

        EXPECT_EQ(sharp.size() + pruned.size(), full.size())
            << loop.name;
        for (const PrunedEdge &edge : pruned)
            EXPECT_FALSE(edge.reason.empty()) << loop.name;
    }
}

TEST(RangePrune, SuiteClampedPrunesEdgesWithoutLosingRealOnes)
{
    // Clamp every parameter to 4: small enough to enumerate the
    // iteration space exhaustively, and tight enough that constant
    // subscript sections (vpenta.7's x(1,j) vs x(3..4,j)) become
    // provably disjoint. Every pruned edge is checked against the
    // brute-force oracle under the SAME bindings: a pruned edge whose
    // access pair concretely shares an address would be a soundness
    // bug, not a sharpness win.
    std::size_t total_pruned = 0;
    for (const SuiteLoop &loop : testSuite()) {
        Program program = loadSuiteProgram(loop);
        const LoopNest &nest = program.nests()[0];

        ParamBindings clamped = program.paramDefaults();
        for (auto &[name, value] : clamped)
            value = 4;

        DepOptions options;
        options.includeInput = false;
        options.rangePrune = true;
        options.params = clamped;
        std::vector<PrunedEdge> pruned;
        options.pruned = &pruned;
        analyzeDependences(nest, options);
        total_pruned += pruned.size();
        if (pruned.empty())
            continue;

        auto observed = observedPairs(nest, clamped);
        for (const PrunedEdge &edge : pruned) {
            bool real =
                observed.count({edge.src, edge.dst, edge.kind}) ||
                observed.count({edge.dst, edge.src, edge.kind});
            EXPECT_FALSE(real)
                << loop.name << ": pruned a real " << depKindName(edge.kind)
                << " dependence between ordinals " << edge.src << " and "
                << edge.dst << " (" << edge.reason << ")";
        }
    }
    // The filter must actually bite somewhere on the suite (vpenta.7
    // prunes by dimension disjointness under this clamp).
    EXPECT_GE(total_pruned, 1u);
}

} // namespace
} // namespace ujam
