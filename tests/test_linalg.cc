/**
 * @file
 * Unit tests for the linalg module: integer vectors, rational
 * matrices, subspaces and the merge-shift solver.
 */

#include <gtest/gtest.h>

#include "linalg/int_vector.hh"
#include "linalg/merge_solver.hh"
#include "linalg/rat_matrix.hh"
#include "linalg/subspace.hh"
#include "support/diagnostics.hh"

namespace ujam
{
namespace
{

TEST(IntVector, ArithmeticAndZero)
{
    IntVector a{1, -2, 3};
    IntVector b{4, 5, -6};
    EXPECT_EQ(a + b, (IntVector{5, 3, -3}));
    EXPECT_EQ(a - b, (IntVector{-3, -7, 9}));
    EXPECT_EQ(-a, (IntVector{-1, 2, -3}));
    EXPECT_TRUE((a - a).isZero());
    EXPECT_FALSE(a.isZero());
}

TEST(IntVector, LexOrder)
{
    EXPECT_TRUE((IntVector{0, 5}).lexLess(IntVector{1, -9}));
    EXPECT_TRUE((IntVector{1, 2}).lexLess(IntVector{1, 3}));
    EXPECT_FALSE((IntVector{1, 3}).lexLess(IntVector{1, 3}));
    EXPECT_EQ((IntVector{2, 0}).lexCompare(IntVector{1, 9}), 1);
    EXPECT_EQ((IntVector{1, 1}).lexCompare(IntVector{1, 1}), 0);
}

TEST(IntVector, Dominance)
{
    EXPECT_TRUE((IntVector{1, 2}).allLessEq(IntVector{1, 3}));
    EXPECT_FALSE((IntVector{2, 2}).allLessEq(IntVector{1, 3}));
    EXPECT_TRUE((IntVector{0, 0}).allNonNegative());
    EXPECT_FALSE((IntVector{0, -1}).allNonNegative());
    EXPECT_EQ(IntVector::max({1, 5}, {3, 2}), (IntVector{3, 5}));
}

TEST(IntVector, SizeMismatchPanics)
{
    EXPECT_THROW((IntVector{1}) + (IntVector{1, 2}), PanicError);
}

TEST(RatMatrix, IdentityAndApply)
{
    RatMatrix eye = RatMatrix::identity(3);
    RatVector v{Rational(1), Rational(2), Rational(3)};
    EXPECT_EQ(eye.apply(v), v);
    EXPECT_EQ(eye.rank(), 3u);
}

TEST(RatMatrix, MultiplyAndTranspose)
{
    RatMatrix a = RatMatrix::fromIntRows({{1, 2}, {3, 4}});
    RatMatrix b = RatMatrix::fromIntRows({{0, 1}, {1, 0}});
    RatMatrix ab = a.multiply(b);
    EXPECT_EQ(ab, RatMatrix::fromIntRows({{2, 1}, {4, 3}}));
    EXPECT_EQ(a.transpose(),
              RatMatrix::fromIntRows({{1, 3}, {2, 4}}));
}

TEST(RatMatrix, RrefAndRank)
{
    RatMatrix m = RatMatrix::fromIntRows({{1, 2, 3}, {2, 4, 6}, {1, 0, 1}});
    EXPECT_EQ(m.rank(), 2u);
    std::vector<std::size_t> pivots = m.reduceToRref();
    ASSERT_EQ(pivots.size(), 2u);
    EXPECT_EQ(pivots[0], 0u);
    EXPECT_EQ(pivots[1], 1u);
}

TEST(RatMatrix, KernelBasisAnnihilates)
{
    RatMatrix m = RatMatrix::fromIntRows({{1, 2, 3}, {0, 1, 1}});
    RatMatrix kernel = m.kernelBasis();
    EXPECT_EQ(kernel.rows(), 1u);
    RatVector image = m.apply(kernel.row(0));
    for (const Rational &x : image)
        EXPECT_TRUE(x.isZero());
}

TEST(RatMatrix, KernelOfFullRankIsEmpty)
{
    RatMatrix m = RatMatrix::identity(4);
    EXPECT_EQ(m.kernelBasis().rows(), 0u);
}

TEST(RatMatrix, SolveConsistent)
{
    RatMatrix m = RatMatrix::fromIntRows({{2, 0}, {0, 4}});
    auto solution = m.solve({Rational(6), Rational(8)});
    ASSERT_TRUE(solution.has_value());
    EXPECT_EQ((*solution)[0], Rational(3));
    EXPECT_EQ((*solution)[1], Rational(2));
}

TEST(RatMatrix, SolveInconsistent)
{
    RatMatrix m = RatMatrix::fromIntRows({{1, 1}, {2, 2}});
    auto solution = m.solve({Rational(1), Rational(3)});
    EXPECT_FALSE(solution.has_value());
}

TEST(RatMatrix, SolveUnderdeterminedSetsFreeVarsToZero)
{
    RatMatrix m = RatMatrix::fromIntRows({{1, 1}});
    auto solution = m.solve({Rational(5)});
    ASSERT_TRUE(solution.has_value());
    EXPECT_EQ((*solution)[0], Rational(5));
    EXPECT_EQ((*solution)[1], Rational(0));
}

TEST(Subspace, ZeroAndFull)
{
    Subspace zero = Subspace::zero(3);
    Subspace full = Subspace::full(3);
    EXPECT_TRUE(zero.isZero());
    EXPECT_EQ(zero.dim(), 0u);
    EXPECT_EQ(full.dim(), 3u);
    EXPECT_TRUE(full.contains(IntVector{1, -7, 4}));
    EXPECT_FALSE(zero.contains(IntVector{0, 0, 1}));
    EXPECT_TRUE(zero.contains(IntVector{0, 0, 0}));
}

TEST(Subspace, SpanCanonicalizes)
{
    Subspace s1 = Subspace::spanOf(2, {IntVector{1, 1}, IntVector{2, 2}});
    Subspace s2 = Subspace::spanOf(2, {IntVector{3, 3}});
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(s1.dim(), 1u);
}

TEST(Subspace, Membership)
{
    Subspace s = Subspace::spanOf(3, {IntVector{1, 0, 1}, IntVector{0, 1, 0}});
    EXPECT_TRUE(s.contains(IntVector{2, 5, 2}));
    EXPECT_FALSE(s.contains(IntVector{1, 0, 0}));
}

TEST(Subspace, Coordinate)
{
    Subspace s = Subspace::coordinate(3, {2});
    EXPECT_EQ(s.dim(), 1u);
    EXPECT_TRUE(s.contains(IntVector{0, 0, 7}));
    EXPECT_FALSE(s.contains(IntVector{0, 1, 7}));
}

TEST(Subspace, Intersection)
{
    // span{(1,0,0), (0,1,0)} cap span{(0,1,0), (0,0,1)} = span{(0,1,0)}
    Subspace a = Subspace::coordinate(3, {0, 1});
    Subspace b = Subspace::coordinate(3, {1, 2});
    Subspace meet = a.intersect(b);
    EXPECT_EQ(meet, Subspace::coordinate(3, {1}));
}

TEST(Subspace, IntersectionNonAxisAligned)
{
    // span{(1,1)} cap span{(1,-1)} = {0}
    Subspace a = Subspace::spanOf(2, {IntVector{1, 1}});
    Subspace b = Subspace::spanOf(2, {IntVector{1, -1}});
    EXPECT_TRUE(a.intersect(b).isZero());

    // span{(1,1,0),(0,0,1)} cap span{(1,1,1)} = span{(1,1,1)}
    Subspace c = Subspace::spanOf(3, {IntVector{1, 1, 0}, IntVector{0, 0, 1}});
    Subspace d = Subspace::spanOf(3, {IntVector{1, 1, 1}});
    EXPECT_EQ(c.intersect(d), d);
}

TEST(Subspace, SumAndContainment)
{
    Subspace a = Subspace::coordinate(3, {0});
    Subspace b = Subspace::coordinate(3, {1});
    Subspace join = a.sum(b);
    EXPECT_EQ(join.dim(), 2u);
    EXPECT_TRUE(join.containsSubspace(a));
    EXPECT_TRUE(join.containsSubspace(b));
    EXPECT_FALSE(a.containsSubspace(join));
}

// --- merge-shift solver -------------------------------------------------

/** Fig. 1 of the paper: A(I,J) and A(I-2,J), localized innermost (J). */
TEST(MergeSolver, PaperFigure1)
{
    RatMatrix h = RatMatrix::identity(2); // subscripts (I, J)
    IntVector delta{2, 0};                // c(A(I,J)) - c(A(I-2,J))
    Subspace localized = Subspace::coordinate(2, {1});
    std::vector<bool> unrollable{true, false};

    auto shift = MergeSolver(h, localized, unrollable).shift(delta);
    ASSERT_TRUE(shift.has_value());
    EXPECT_EQ(*shift, (IntVector{2, 0}));
}

TEST(MergeSolver, InnermostDifferenceAbsorbedByLocalizedSpace)
{
    // A(I,J) vs A(I-1,J+3) with J innermost/localized: merge at u=(1,0).
    RatMatrix h = RatMatrix::identity(2);
    IntVector delta{1, -3};
    Subspace localized = Subspace::coordinate(2, {1});
    std::vector<bool> unrollable{true, false};

    auto shift = MergeSolver(h, localized, unrollable).shift(delta);
    ASSERT_TRUE(shift.has_value());
    EXPECT_EQ(*shift, (IntVector{1, 0}));
}

TEST(MergeSolver, NegativeShiftMeansNoMerge)
{
    RatMatrix h = RatMatrix::identity(2);
    IntVector delta{-2, 0};
    Subspace localized = Subspace::coordinate(2, {1});
    std::vector<bool> unrollable{true, false};

    EXPECT_FALSE(
        MergeSolver(h, localized, unrollable).shift(delta).has_value());
}

TEST(MergeSolver, FractionalShiftMeansNoMerge)
{
    // Subscript 2*I: copies step by 2, a difference of 3 never aligns.
    RatMatrix h = RatMatrix::fromIntRows({{2, 0}, {0, 1}});
    IntVector delta{3, 0};
    Subspace localized = Subspace::coordinate(2, {1});
    std::vector<bool> unrollable{true, false};

    EXPECT_FALSE(
        MergeSolver(h, localized, unrollable).shift(delta).has_value());
}

TEST(MergeSolver, ScaledCoefficient)
{
    RatMatrix h = RatMatrix::fromIntRows({{2, 0}, {0, 1}});
    IntVector delta{6, 0};
    Subspace localized = Subspace::coordinate(2, {1});
    std::vector<bool> unrollable{true, false};

    auto shift = MergeSolver(h, localized, unrollable).shift(delta);
    ASSERT_TRUE(shift.has_value());
    EXPECT_EQ(*shift, (IntVector{3, 0}));
}

TEST(MergeSolver, InconsistentSystemMeansNoMerge)
{
    // Delta in a dimension no loop indexes: A(I,1) vs A(I,2) never merge.
    RatMatrix h = RatMatrix::fromIntRows({{1, 0}, {0, 0}});
    IntVector delta{0, 1};
    Subspace localized = Subspace::zero(2);
    std::vector<bool> unrollable{true, false};

    EXPECT_FALSE(
        MergeSolver(h, localized, unrollable).shift(delta).has_value());
}

TEST(MergeSolver, LoopInvariantColumnLeavesShiftFree)
{
    // B(J) in an (I, J) nest: column for I is zero, so any I shift
    // works; the minimal choice is 0.
    RatMatrix h = RatMatrix::fromIntRows({{0, 1}});
    IntVector delta{0};
    Subspace localized = Subspace::zero(2);
    std::vector<bool> unrollable{true, false};

    auto shift = MergeSolver(h, localized, unrollable).shift(delta);
    ASSERT_TRUE(shift.has_value());
    EXPECT_EQ(*shift, (IntVector{0, 0}));
}

TEST(MergeSolver, TwoUnrolledDims)
{
    // 3-deep nest (I,J,K), K innermost localized, identity subscripts:
    // A(I,J,K) vs A(I-1,J-2,K): merge at (1,2,0).
    RatMatrix h = RatMatrix::identity(3);
    IntVector delta{1, 2, 0};
    Subspace localized = Subspace::coordinate(3, {2});
    std::vector<bool> unrollable{true, true, false};

    auto shift = MergeSolver(h, localized, unrollable).shift(delta);
    ASSERT_TRUE(shift.has_value());
    EXPECT_EQ(*shift, (IntVector{1, 2, 0}));
}

TEST(MergeSolver, MixedSignAcrossUnrolledDims)
{
    // A(I,J,K) vs A(I-1,J+1,K): needs u = (1,-1,0), impossible.
    RatMatrix h = RatMatrix::identity(3);
    IntVector delta{1, -1, 0};
    Subspace localized = Subspace::coordinate(3, {2});
    std::vector<bool> unrollable{true, true, false};

    EXPECT_FALSE(
        MergeSolver(h, localized, unrollable).shift(delta).has_value());
}

} // namespace
} // namespace ujam
