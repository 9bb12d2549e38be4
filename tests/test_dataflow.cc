/**
 * @file
 * The symbolic dataflow engine: interval/congruence domain algebra,
 * the abstract interpretation over nests, and the soundness property
 * -- for fuzzed parameter bindings, the static per-array subscript
 * intervals must contain every subscript the concrete interpreter
 * actually produces (DataflowProperty, part of the fuzz-fast label).
 */

#include <gtest/gtest.h>

#include <limits>
#include <map>

#include "analysis/dataflow.hh"
#include "ir/builder.hh"
#include "ir/interp.hh"
#include "ir/validate.hh"
#include "parser/parser.hh"
#include "support/diagnostics.hh"
#include "support/rng.hh"
#include "workloads/suite.hh"

namespace ujam
{
namespace
{

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

// --- Interval algebra -----------------------------------------------

TEST(Interval, BasicPredicates)
{
    EXPECT_TRUE(Interval::top() == Interval::top());
    EXPECT_FALSE(Interval::top().bounded());
    EXPECT_FALSE(Interval::top().isEmpty());
    EXPECT_TRUE(Interval::point(3).isPoint());
    EXPECT_TRUE(Interval::empty().isEmpty());
    EXPECT_TRUE(Interval::closed(2, 1).isEmpty());

    EXPECT_TRUE(Interval::closed(1, 5).contains(1));
    EXPECT_TRUE(Interval::closed(1, 5).contains(5));
    EXPECT_FALSE(Interval::closed(1, 5).contains(6));
    EXPECT_FALSE(Interval::empty().contains(0));
    EXPECT_TRUE(Interval::top().contains(kMax));
}

TEST(Interval, HullAndDisjoint)
{
    Interval h = Interval::hull(Interval::closed(1, 3),
                                Interval::closed(7, 9));
    EXPECT_EQ(h, Interval::closed(1, 9));
    // Hull with an unbounded side loses that side.
    Interval half = Interval::hull(Interval::closed(1, 3),
                                   Interval::top());
    EXPECT_FALSE(half.bounded());

    EXPECT_TRUE(Interval::disjoint(Interval::closed(1, 3),
                                   Interval::closed(4, 9)));
    EXPECT_FALSE(Interval::disjoint(Interval::closed(1, 4),
                                    Interval::closed(4, 9)));
    // Disjointness against an unbounded interval is never provable...
    EXPECT_FALSE(Interval::disjoint(Interval::closed(1, 3),
                                    Interval::top()));
    // ...but an empty interval is disjoint from everything.
    EXPECT_TRUE(Interval::disjoint(Interval::empty(), Interval::top()));
}

TEST(Interval, Arithmetic)
{
    EXPECT_EQ(Interval::closed(1, 4).plus(Interval::closed(-2, 3)),
              Interval::closed(-1, 7));
    EXPECT_EQ(Interval::closed(1, 4).shifted(10),
              Interval::closed(11, 14));
    EXPECT_EQ(Interval::closed(1, 4).scaled(3), Interval::closed(3, 12));
    // A negative factor swaps the ends.
    EXPECT_EQ(Interval::closed(1, 4).scaled(-2),
              Interval::closed(-8, -2));
    EXPECT_EQ(Interval::closed(1, 4).scaled(0), Interval::point(0));
}

TEST(Interval, ArithmeticSaturates)
{
    Interval huge = Interval::closed(kMax - 1, kMax);
    EXPECT_EQ(huge.plus(Interval::closed(10, 10)).hi, kMax);
    EXPECT_EQ(huge.scaled(2).hi, kMax);
    EXPECT_EQ(Interval::closed(kMin, kMin + 1).shifted(-5).lo, kMin);
    EXPECT_EQ(satAdd(kMax, 1), kMax);
    EXPECT_EQ(satAdd(kMin, -1), kMin);
    EXPECT_EQ(satMul(kMax / 2, 3), kMax);
    EXPECT_EQ(satMul(kMin / 2, 3), kMin);
    EXPECT_EQ(satMul(kMax, -2), kMin);
}

TEST(Interval, ToString)
{
    EXPECT_EQ(Interval::closed(2, 143).toString(), "[2, 143]");
    EXPECT_EQ(Interval::top().toString(), "top");
    EXPECT_EQ(Interval::empty().toString(), "empty");
}

// --- Congruence algebra ---------------------------------------------

TEST(Congruence, NormalizationAndMembership)
{
    Congruence c = Congruence::stride(4, -3); // -3 mod 4 == 1
    EXPECT_EQ(c.modulus, 4);
    EXPECT_EQ(c.residue, 1);
    EXPECT_TRUE(c.admits(5));
    EXPECT_TRUE(c.admits(-3));
    EXPECT_FALSE(c.admits(4));

    EXPECT_TRUE(Congruence::top().admits(7));
    EXPECT_TRUE(Congruence::constant(7).admits(7));
    EXPECT_FALSE(Congruence::constant(7).admits(8));
    EXPECT_TRUE(Congruence::stride(1, 0).isTop());
}

TEST(Congruence, JoinIsTheGcdLattice)
{
    // Two constants join to a stride of their difference.
    Congruence j = Congruence::join(Congruence::constant(3),
                                    Congruence::constant(7));
    EXPECT_TRUE(j.admits(3));
    EXPECT_TRUE(j.admits(7));
    EXPECT_TRUE(j.admits(11));

    // Same fact joins to itself.
    Congruence s = Congruence::stride(6, 2);
    EXPECT_EQ(Congruence::join(s, s), s);

    // mod 4 and mod 6 collapse to mod gcd-structure; join must admit
    // every member of both inputs.
    Congruence a = Congruence::stride(4, 1);
    Congruence b = Congruence::stride(6, 3);
    Congruence ab = Congruence::join(a, b);
    for (std::int64_t v = -24; v <= 24; ++v) {
        if (a.admits(v) || b.admits(v)) {
            EXPECT_TRUE(ab.admits(v)) << v;
        }
    }
}

TEST(Congruence, Arithmetic)
{
    Congruence c = Congruence::stride(4, 1);
    // (1 mod 4) + (2 mod 4) = (3 mod 4); adding a constant shifts.
    EXPECT_EQ(c.plus(Congruence::stride(4, 2)),
              Congruence::stride(4, 3));
    EXPECT_EQ(c.plus(Congruence::constant(5)),
              Congruence::stride(4, 2));
    // Scaling multiplies modulus and residue.
    Congruence scaled = c.scaled(3);
    EXPECT_TRUE(scaled.admits(3));
    EXPECT_TRUE(scaled.admits(15));
    EXPECT_FALSE(scaled.admits(6));
    EXPECT_EQ(c.scaled(0), Congruence::constant(0));
}

// --- boundInterval --------------------------------------------------

TEST(BoundInterval, PointTopAndAligned)
{
    ParamBindings params{{"n", 10}};
    EXPECT_EQ(boundInterval(Bound::param("n"), params),
              Interval::point(10));
    EXPECT_EQ(boundInterval(Bound::constant(3), params),
              Interval::point(3));
    // An unbound parameter widens to top.
    EXPECT_FALSE(boundInterval(Bound::param("m"), params).bounded());

    // align(1, 10, 3) = 9 exactly when both sub-bounds are points.
    Bound aligned = Bound::alignedUpper(Bound::constant(1),
                                        Bound::param("n"), 3);
    EXPECT_EQ(boundInterval(aligned, params), Interval::point(9));
    // With the upper bound unbound the window keeps only what is
    // certain: never below lower - 1 (the zero-trip rendering).
    Bound open = Bound::alignedUpper(Bound::constant(1),
                                     Bound::param("m"), 3);
    Interval window = boundInterval(open, params);
    EXPECT_TRUE(window.hasLo);
    EXPECT_EQ(window.lo, 0);
    EXPECT_FALSE(window.hasHi);
}

// --- NestDataflow ---------------------------------------------------

Program
parse(const char *source)
{
    return parseProgram(source, "<dataflow-test>");
}

TEST(NestDataflowFacts, LoopValuesTripAndStride)
{
    Program program = parse("param n = 9\n"
                            "real a(n)\n"
                            "real b(n)\n"
                            "do j = 1, align(1, n, 2), 2\n"
                            "  do i = 1, n\n"
                            "    b(i) = b(i) + a(j)\n"
                            "  end do\n"
                            "end do\n");
    NestDataflow df(program, program.nests()[0],
                    program.paramDefaults());
    ASSERT_EQ(df.loops().size(), 2u);

    const LoopDataflow &j = df.loops()[0];
    // align(1, 9, 2) = 8: four iterations at j = 1, 3, 5, 7.
    EXPECT_EQ(j.values, Interval::closed(1, 8));
    // j == 1 (mod 2): the step congruence.
    EXPECT_TRUE(j.cong.admits(1));
    EXPECT_TRUE(j.cong.admits(7));
    EXPECT_FALSE(j.cong.admits(2));
    EXPECT_EQ(j.trip, Interval::point(4));
    EXPECT_FALSE(j.provablyEmpty());
    EXPECT_FALSE(j.provablySingle());

    const LoopDataflow &i = df.loops()[1];
    EXPECT_EQ(i.values, Interval::closed(1, 9));
    EXPECT_EQ(i.trip, Interval::point(9));

    EXPECT_FALSE(df.provablyEmpty());
    EXPECT_TRUE(df.allInHalo());
}

TEST(NestDataflowFacts, AccessFactsAndInnerStride)
{
    Program program = parse("param n = 8\n"
                            "real a(n, n)\n"
                            "real b(n, n)\n"
                            "do i = 1, n\n"
                            "  do j = 1, n\n"
                            "    b(i, j) = a(i, j - 1) + 1.0\n"
                            "  end do\n"
                            "end do\n");
    const LoopNest &nest = program.nests()[0];
    NestDataflow df(program, nest, program.paramDefaults());
    ASSERT_EQ(df.accesses().size(), nest.accesses().size());

    // Find the a(i, j-1) read.
    const AccessDataflow *read = nullptr;
    for (const AccessDataflow &ad : df.accesses()) {
        if (ad.array == "a" && !ad.isWrite)
            read = &ad;
    }
    ASSERT_NE(read, nullptr);
    ASSERT_EQ(read->dims.size(), 2u);
    EXPECT_EQ(read->dims[0].range, Interval::closed(1, 8));
    EXPECT_EQ(read->dims[1].range, Interval::closed(0, 7));
    EXPECT_TRUE(read->inHalo);
    EXPECT_FALSE(read->inBounds); // j - 1 reaches 0

    // Column-major with a padded leading extent of 8 + 2*8 = 24:
    // advancing j (the innermost loop) jumps a full padded column.
    ASSERT_TRUE(read->innerStride.has_value());
    EXPECT_EQ(*read->innerStride, 24);
    EXPECT_TRUE(read->flat.bounded());
    EXPECT_FALSE(read->flat.isEmpty());
    EXPECT_GE(read->flat.lo, 0);
}

TEST(NestDataflowFacts, EmptyAndSingleTripLoops)
{
    Program program = parse("param n = 8\n"
                            "real a(n, n)\n"
                            "do i = 5, 5\n"
                            "  do j = 8, 1\n"
                            "    a(i, j) = a(i, j) + 1.0\n"
                            "  end do\n"
                            "end do\n");
    NestDataflow df(program, program.nests()[0],
                    program.paramDefaults());
    EXPECT_TRUE(df.loops()[0].provablySingle());
    EXPECT_TRUE(df.loops()[1].provablyEmpty());
    EXPECT_TRUE(df.provablyEmpty());
}

TEST(NestDataflowFacts, UnboundParameterWidensToTop)
{
    Program program;
    program.declareArray(
        {"a", {Bound::constant(8), Bound::constant(8)}});
    LoopNest nest = NestBuilder()
                        .name("widen")
                        .loop("i", 1, 8)
                        .loop("j", 1, 8)
                        .assign("a", {idx("i"), idx("j")}, lit(0.0))
                        .build();
    nest.loop(0).upper = Bound::param("m");
    program.addNest(nest);

    NestDataflow df(program, nest, program.paramDefaults());
    EXPECT_FALSE(df.loops()[0].values.bounded());
    EXPECT_TRUE(df.loops()[0].values.hasLo); // lower bound still known
    // i's subscript interval is unbounded, so no certificate...
    EXPECT_FALSE(df.allInHalo());
    // ...but j's facts survive the widening untouched.
    EXPECT_EQ(df.loops()[1].values, Interval::closed(1, 8));
}

TEST(NestDataflowFacts, UnrolledDimRangeGrowsForward)
{
    Program program = parse("param n = 8\n"
                            "real a(n, n)\n"
                            "real b(n, n)\n"
                            "do i = 1, n\n"
                            "  do j = 1, n\n"
                            "    b(i, j) = a(i + 2, j)\n"
                            "  end do\n"
                            "end do\n");
    const LoopNest &nest = program.nests()[0];
    NestDataflow df(program, nest, program.paramDefaults());
    // Execution order: the a(i + 2, j) read precedes the write.
    std::vector<Access> accesses = nest.accesses();
    ASSERT_EQ(accesses[0].ref.array(), "a");
    const ArrayRef &ref = accesses[0].ref;

    EXPECT_EQ(df.unrolledDimRange(ref, 0, IntVector{0, 0}),
              Interval::closed(3, 10));
    // Unroll i by 3: copies at iv + 0..3, reach grows by 3 forward.
    EXPECT_EQ(df.unrolledDimRange(ref, 0, IntVector{3, 0}),
              Interval::closed(3, 13));
    // The j dimension is not affected by unrolling i.
    EXPECT_EQ(df.unrolledDimRange(ref, 1, IntVector{3, 0}),
              Interval::closed(1, 8));
}

// --- the soundness property against the interpreter -----------------

/**
 * Static-over-approximation check for one program: run the concrete
 * interpreter with subscript tracking, then require every observed
 * per-array min/max subscript to lie inside the hull of the abstract
 * per-access intervals of the nests that touch the array.
 */
void
expectSoundOn(const Program &program, const ParamBindings &overrides,
              std::uint64_t seed, const std::string &label)
{
    Interpreter interp(program, overrides);
    interp.trackSubscriptRanges(true);
    interp.seedArrays(seed);
    interp.run();

    // Hull the abstract ranges per array dimension over every nest.
    std::map<std::string, std::vector<Interval>> abstract;
    for (const LoopNest &nest : program.nests()) {
        NestDataflow df(program, nest, interp.params());
        auto fold = [&](const AccessDataflow &ad) {
            auto [it, fresh] = abstract.try_emplace(ad.array);
            if (fresh)
                it->second.assign(ad.dims.size(), Interval::empty());
            for (std::size_t d = 0;
                 d < ad.dims.size() && d < it->second.size(); ++d) {
                it->second[d] =
                    Interval::hull(it->second[d], ad.dims[d].range);
            }
        };
        for (const AccessDataflow &ad : df.accesses())
            fold(ad);
        for (const AccessDataflow &ad : df.headerAccesses())
            fold(ad);
    }

    for (const auto &[array, dims] : interp.observedSubscriptRanges()) {
        auto it = abstract.find(array);
        ASSERT_NE(it, abstract.end()) << label << ": " << array;
        ASSERT_EQ(it->second.size(), dims.size())
            << label << ": " << array;
        for (std::size_t d = 0; d < dims.size(); ++d) {
            EXPECT_TRUE(it->second[d].contains(dims[d].min))
                << label << ": " << array << " dim " << d + 1
                << " observed min " << dims[d].min << " outside "
                << it->second[d].toString();
            EXPECT_TRUE(it->second[d].contains(dims[d].max))
                << label << ": " << array << " dim " << d + 1
                << " observed max " << dims[d].max << " outside "
                << it->second[d].toString();
        }
    }
}

TEST(DataflowProperty, SuiteIntervalsCoverInterpreterUnderParamFuzz)
{
    // Every suite loop under fuzzed parameter bindings: per-item
    // stream derivation keeps each (loop, round) reproducible in
    // isolation.
    constexpr std::uint64_t kMaster = 20260809;
    std::uint64_t item = 0;
    for (const SuiteLoop &loop : testSuite()) {
        for (int round = 0; round < 3; ++round, ++item) {
            Rng rng(Rng::deriveStream(kMaster, item));
            Program program = loadSuiteProgram(loop);
            // One shared value per round: suite loops relate their
            // parameters (an extent in one may bound a loop in
            // another), so independent fuzz could step outside the
            // halo and turn a soundness check into a fault check.
            std::int64_t value = rng.range(3, 12);
            ParamBindings overrides;
            for (const auto &kv : program.paramDefaults())
                overrides[kv.first] = value;
            expectSoundOn(program, overrides, rng.next(),
                          concat(loop.name, " round ", round));
        }
    }
}

TEST(DataflowProperty, RandomNestsIntervalsCoverInterpreter)
{
    // Random builder nests with random offsets -- shapes the suite
    // does not cover (negative offsets on every dim, repeated arrays).
    constexpr std::uint64_t kMaster = 97170809;
    for (int item = 0; item < 40; ++item) {
        Rng rng(Rng::deriveStream(kMaster, item));
        Program program;
        program.declareArray(
            {"a", {Bound::constant(12), Bound::constant(12)}});
        program.declareArray(
            {"b", {Bound::constant(12), Bound::constant(12)}});

        NestBuilder b;
        b.loop("i", 1, rng.range(2, 10)).loop("j", 1, rng.range(2, 10));
        auto off = [&]() { return rng.range(-3, 3); };
        ExprPtr rhs = b.read("a", {idx("i", off()), idx("j", off())});
        int extra = static_cast<int>(rng.range(1, 3));
        for (int r = 0; r < extra; ++r) {
            rhs = add(std::move(rhs),
                      b.read("a", {idx("i", off()), idx("j", off())}));
        }
        b.assign("b", {idx("i"), idx("j")}, rhs);
        LoopNest nest = b.name(concat("rand", item)).build();
        program.addNest(nest);
        if (!validateProgram(program).empty())
            continue;

        expectSoundOn(program, {}, rng.next(), concat("rand", item));
    }
}

} // namespace
} // namespace ujam
