/**
 * @file
 * Unit tests for the support module: rationals, RNG, strings,
 * diagnostics.
 */

#include <gtest/gtest.h>

#include "support/diagnostics.hh"
#include "support/rational.hh"
#include "support/rng.hh"
#include "support/string_utils.hh"

namespace ujam
{
namespace
{

TEST(Rational, DefaultIsZero)
{
    Rational r;
    EXPECT_TRUE(r.isZero());
    EXPECT_TRUE(r.isInteger());
    EXPECT_EQ(r.toInteger(), 0);
}

TEST(Rational, NormalizesSignAndGcd)
{
    Rational r(6, -4);
    EXPECT_EQ(r.num(), -3);
    EXPECT_EQ(r.den(), 2);
    EXPECT_TRUE(r.isNegative());
    EXPECT_FALSE(r.isInteger());
}

TEST(Rational, ZeroDenominatorPanics)
{
    EXPECT_THROW(Rational(1, 0), PanicError);
}

TEST(Rational, Arithmetic)
{
    Rational half(1, 2);
    Rational third(1, 3);
    EXPECT_EQ(half + third, Rational(5, 6));
    EXPECT_EQ(half - third, Rational(1, 6));
    EXPECT_EQ(half * third, Rational(1, 6));
    EXPECT_EQ(half / third, Rational(3, 2));
    EXPECT_EQ(-half, Rational(-1, 2));
}

TEST(Rational, CompoundAssignment)
{
    Rational r(1, 4);
    r += Rational(1, 4);
    EXPECT_EQ(r, Rational(1, 2));
    r *= Rational(4);
    EXPECT_EQ(r, Rational(2));
    r -= Rational(1, 2);
    EXPECT_EQ(r, Rational(3, 2));
    r /= Rational(3);
    EXPECT_EQ(r, Rational(1, 2));
}

TEST(Rational, Ordering)
{
    EXPECT_LT(Rational(1, 3), Rational(1, 2));
    EXPECT_LT(Rational(-1, 2), Rational(-1, 3));
    EXPECT_LE(Rational(2, 4), Rational(1, 2));
    EXPECT_GT(Rational(7, 3), Rational(2));
    EXPECT_GE(Rational(7, 3), Rational(7, 3));
}

TEST(Rational, FloorCeil)
{
    EXPECT_EQ(Rational(7, 2).floor(), 3);
    EXPECT_EQ(Rational(7, 2).ceil(), 4);
    EXPECT_EQ(Rational(-7, 2).floor(), -4);
    EXPECT_EQ(Rational(-7, 2).ceil(), -3);
    EXPECT_EQ(Rational(6, 2).floor(), 3);
    EXPECT_EQ(Rational(6, 2).ceil(), 3);
}

TEST(Rational, ToIntegerRejectsFractions)
{
    EXPECT_THROW(Rational(1, 2).toInteger(), PanicError);
    EXPECT_EQ(Rational(-8, 4).toInteger(), -2);
}

TEST(Rational, DivisionByZeroPanics)
{
    EXPECT_THROW(Rational(1) / Rational(0), PanicError);
}

TEST(Rational, ToStringForms)
{
    EXPECT_EQ(Rational(3).toString(), "3");
    EXPECT_EQ(Rational(-3, 6).toString(), "-1/2");
}

TEST(Rational, CrossCancellationAvoidsOverflow)
{
    // (2^40 / 3) * (3 / 2^40) must not overflow intermediates.
    Rational big(1LL << 40, 3);
    Rational inv(3, 1LL << 40);
    EXPECT_EQ(big * inv, Rational(1));
}

TEST(Gcd64, Basics)
{
    EXPECT_EQ(gcd64(12, 18), 6);
    EXPECT_EQ(gcd64(-12, 18), 6);
    EXPECT_EQ(gcd64(0, 5), 5);
    EXPECT_EQ(gcd64(0, 0), 0);
}

TEST(CheckedArithmetic, OverflowPanics)
{
    EXPECT_THROW(checkedMul(1LL << 62, 4), PanicError);
    EXPECT_THROW(checkedAdd(INT64_MAX, 1), PanicError);
    EXPECT_EQ(checkedAdd(INT64_MAX, -1), INT64_MAX - 1);
}

TEST(Diagnostics, FatalAndPanicCarryMessages)
{
    try {
        fatal("bad thing ", 42);
        FAIL() << "fatal did not throw";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("bad thing 42"),
                  std::string::npos);
    }
    try {
        panic("impossible ", "state");
        FAIL() << "panic did not throw";
    } catch (const PanicError &err) {
        EXPECT_NE(std::string(err.what()).find("impossible state"),
                  std::string::npos);
    }
}

TEST(Diagnostics, AssertMacro)
{
    EXPECT_NO_THROW(UJAM_ASSERT(1 + 1 == 2, "arithmetic works"));
    EXPECT_THROW(UJAM_ASSERT(false, "must fire"), PanicError);
}

TEST(Rng, Deterministic)
{
    Rng a(1234);
    Rng b(1234);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 4);
}

TEST(Rng, RangeStaysInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        std::int64_t v = rng.range(-3, 5);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, RangeSingleton)
{
    Rng rng(7);
    EXPECT_EQ(rng.range(4, 4), 4);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(99);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(5);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
}

TEST(StringUtils, Trim)
{
    EXPECT_EQ(trim("  hello \t\n"), "hello");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(StringUtils, Split)
{
    auto fields = split("a,b,,c", ',');
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[2], "");
    EXPECT_EQ(fields[3], "c");
}

TEST(StringUtils, CaseAndPrefix)
{
    EXPECT_EQ(toLower("DO J = 1, N"), "do j = 1, n");
    EXPECT_TRUE(startsWith("nest: foo", "nest:"));
    EXPECT_FALSE(startsWith("ne", "nest:"));
}

TEST(StringUtils, Padding)
{
    EXPECT_EQ(padLeft("ab", 4), "  ab");
    EXPECT_EQ(padRight("ab", 4), "ab  ");
    EXPECT_EQ(padLeft("abcde", 4), "abcde");
}

TEST(StringUtils, FormatFixed)
{
    EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
    EXPECT_EQ(formatFixed(2.0, 3), "2.000");
}

TEST(StringUtils, StrictIntegers)
{
    std::int64_t value = 7;
    EXPECT_TRUE(parseInt64("-42", value));
    EXPECT_EQ(value, -42);
    for (const char *bad : {"", "abc", "4x", " 4", "+4", "-",
                            "99999999999999999999"}) {
        EXPECT_FALSE(parseInt64(bad, value)) << bad;
        EXPECT_EQ(value, -42) << bad;
    }

    // strtoull alone would read " -1" as 2^64 - 1.
    std::uint64_t wide = 0;
    EXPECT_TRUE(parseUint64("18446744073709551615", wide));
    EXPECT_FALSE(parseUint64("-1", wide));
    EXPECT_FALSE(parseUint64(" -1", wide));

    // parseCount: non-negative and fits the field.
    int narrow = 5;
    EXPECT_TRUE(parseCount("2147483647", narrow));
    EXPECT_EQ(narrow, 2147483647);
    EXPECT_FALSE(parseCount("2147483648", narrow));
    std::int64_t signed_field = 0;
    EXPECT_FALSE(parseCount("-5", signed_field));
    EXPECT_TRUE(parseCount("0", signed_field));
}

} // namespace
} // namespace ujam
