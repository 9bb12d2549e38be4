/**
 * @file
 * Unit tests for the IR: references, expressions, statements, bounds,
 * nests, builder, printer, validation and the interpreter.
 */

#include <gtest/gtest.h>

#include "ir/builder.hh"
#include "ir/interp.hh"
#include "ir/printer.hh"
#include "ir/validate.hh"
#include "support/diagnostics.hh"

namespace ujam
{
namespace
{

ArrayRef
makeRef2(const std::string &name, std::int64_t ci, std::int64_t cj)
{
    // a(i + ci, j + cj) in a depth-2 nest.
    return ArrayRef(name, {IntVector{1, 0}, IntVector{0, 1}},
                    IntVector{ci, cj});
}

TEST(ArrayRef, UniformlyGenerated)
{
    ArrayRef a = makeRef2("a", 0, 0);
    ArrayRef b = makeRef2("a", -2, 1);
    ArrayRef c = makeRef2("b", 0, 0);
    EXPECT_TRUE(a.uniformlyGeneratedWith(b));
    EXPECT_FALSE(a.uniformlyGeneratedWith(c));

    ArrayRef transposed("a", {IntVector{0, 1}, IntVector{1, 0}},
                        IntVector{0, 0});
    EXPECT_FALSE(a.uniformlyGeneratedWith(transposed));
}

TEST(ArrayRef, SivSeparable)
{
    EXPECT_TRUE(makeRef2("a", 1, -1).isSivSeparable());
    // a(i+j, j) couples two induction variables in one subscript.
    ArrayRef coupled("a", {IntVector{1, 1}, IntVector{0, 1}},
                     IntVector{0, 0});
    EXPECT_FALSE(coupled.isSivSeparable());
    // a(i, i) uses one induction variable in two subscripts.
    ArrayRef repeated("a", {IntVector{1, 0}, IntVector{1, 0}},
                      IntVector{0, 0});
    EXPECT_FALSE(repeated.isSivSeparable());
}

TEST(ArrayRef, ShiftedAppliesSubscriptMatrix)
{
    ArrayRef a("a", {IntVector{2, 0}, IntVector{0, 1}}, IntVector{1, 0});
    ArrayRef shifted = a.shifted(IntVector{3, 1});
    EXPECT_EQ(shifted.offset(), (IntVector{7, 1}));
    EXPECT_TRUE(a.uniformlyGeneratedWith(shifted));
}

TEST(ArrayRef, SpatialMatrixZeroesFirstRow)
{
    ArrayRef a = makeRef2("a", 4, 5);
    RatMatrix hs = a.spatialSubscriptMatrix();
    EXPECT_TRUE(hs.at(0, 0).isZero());
    EXPECT_EQ(hs.at(1, 1), Rational(1));
    EXPECT_EQ(a.spatialOffset(), (IntVector{0, 5}));
}

TEST(ArrayRef, LoopAndTermQueries)
{
    ArrayRef a("a", {IntVector{0, 3}, IntVector{0, 0}}, IntVector{0, 7});
    auto [dim, coeff] = a.termForLoop(1);
    EXPECT_EQ(dim, 0);
    EXPECT_EQ(coeff, 3);
    auto [dim0, coeff0] = a.termForLoop(0);
    EXPECT_EQ(dim0, -1);
    EXPECT_EQ(coeff0, 0);
}

TEST(ArrayRef, ToStringRendersAffineForms)
{
    ArrayRef a("a", {IntVector{1, 0}, IntVector{0, -2}}, IntVector{-1, 3});
    EXPECT_EQ(a.toString({"i", "j"}), "a(i-1, -2*j+3)");
    ArrayRef c("c", {IntVector{0, 0}}, IntVector{5});
    EXPECT_EQ(c.toString({"i", "j"}), "c(5)");
}

TEST(Expr, FlopCounting)
{
    // (x + 2.0) * x / x  -> 3 flops
    ExprPtr x = Expr::scalar("x");
    ExprPtr e = divide(mul(add(x, lit(2.0)), x), x);
    EXPECT_EQ(e->countFlops(), 3u);
    EXPECT_EQ(lit(1.0)->countFlops(), 0u);
}

TEST(Expr, RewriteArrayReads)
{
    ArrayRef a = makeRef2("a", 0, 0);
    ExprPtr e = add(Expr::arrayRead(a), Expr::arrayRead(a));
    ExprPtr rewritten = e->rewriteArrayReads([](const ArrayRef &) {
        return Expr::scalar("t0");
    });
    EXPECT_EQ(rewritten->lhs()->kind(), Expr::Kind::Scalar);
    EXPECT_EQ(rewritten->rhs()->scalarName(), "t0");
}

TEST(Stmt, ReductionDetection)
{
    ArrayRef a = makeRef2("a", 0, 0);
    ArrayRef b = makeRef2("b", 0, 0);
    Stmt reduction = Stmt::assignArray(
        a, add(Expr::arrayRead(a), Expr::arrayRead(b)));
    EXPECT_TRUE(reduction.isReduction());

    Stmt copy = Stmt::assignArray(a, Expr::arrayRead(b));
    EXPECT_FALSE(copy.isReduction());

    // a(i,j) = a(i-1,j) + b: not a reduction (different element).
    Stmt stencil = Stmt::assignArray(
        a, add(Expr::arrayRead(makeRef2("a", -1, 0)), Expr::arrayRead(b)));
    EXPECT_FALSE(stencil.isReduction());

    // Multiplication does not hide the read under a +.
    Stmt scaled = Stmt::assignArray(
        a, mul(Expr::arrayRead(a), Expr::arrayRead(b)));
    EXPECT_FALSE(scaled.isReduction());
}

TEST(Bound, ConstantAndParam)
{
    Bound c = Bound::constant(42);
    EXPECT_TRUE(c.isConstant());
    EXPECT_EQ(c.evaluate({}), 42);

    Bound p = Bound::param("n", 2, -1);
    EXPECT_FALSE(p.isConstant());
    EXPECT_EQ(p.evaluate({{"n", 10}}), 19);
    EXPECT_THROW(p.evaluate({}), FatalError);
}

TEST(Bound, SumMergesTerms)
{
    Bound s = Bound::sum(Bound::param("n"), Bound::param("m", 3, 2));
    EXPECT_EQ(s.evaluate({{"n", 5}, {"m", 4}}), 19);
    Bound cancel = Bound::sum(Bound::param("n"), Bound::param("n", -1));
    EXPECT_TRUE(cancel.isConstant());
}

TEST(Bound, AlignedUpper)
{
    // align(1, 10, 3): trips 10, 3 full steps of 3 -> last covered is 9.
    Bound b = Bound::alignedUpper(Bound::constant(1), Bound::constant(10), 3);
    EXPECT_EQ(b.evaluate({}), 9);
    // Exactly divisible: align(1, 9, 3) = 9.
    EXPECT_EQ(
        Bound::alignedUpper(Bound::constant(1), Bound::constant(9), 3)
            .evaluate({}),
        9);
    // Empty range: align(5, 4, 2) = 5 + 0 - 1 = 4 (keeps range empty).
    EXPECT_EQ(
        Bound::alignedUpper(Bound::constant(5), Bound::constant(4), 2)
            .evaluate({}),
        4);
    // Symbolic: align(1, n, 4) with n = 11 -> 8.
    EXPECT_EQ(Bound::alignedUpper(Bound::constant(1), Bound::param("n"), 4)
                  .evaluate({{"n", 11}}),
              8);
}

TEST(Loop, TripCount)
{
    Loop loop{"i", Bound::constant(1), Bound::param("n"), 2};
    EXPECT_EQ(loop.tripCount({{"n", 10}}), 5);
    EXPECT_EQ(loop.tripCount({{"n", 9}}), 5);
    EXPECT_EQ(loop.tripCount({{"n", 0}}), 0);
}

LoopNest
buildSaxpyNest()
{
    NestBuilder b;
    b.loop("j", Bound::constant(1), Bound::param("n"))
        .loop("i", Bound::constant(1), Bound::param("m"));
    b.assign("a", {idx("j")},
             add(b.read("a", {idx("j")}), b.read("b", {idx("i")})));
    return b.name("sum").build();
}

TEST(NestBuilder, BuildsNest)
{
    LoopNest nest = buildSaxpyNest();
    EXPECT_EQ(nest.depth(), 2u);
    EXPECT_EQ(nest.name(), "sum");
    EXPECT_EQ(nest.bodyFlops(), 1u);
    EXPECT_TRUE(nest.allRefsAnalyzable());

    std::vector<Access> accesses = nest.accesses();
    ASSERT_EQ(accesses.size(), 3u);
    EXPECT_FALSE(accesses[0].isWrite); // a(j) read
    EXPECT_FALSE(accesses[1].isWrite); // b(i) read
    EXPECT_TRUE(accesses[2].isWrite);  // a(j) write
    EXPECT_EQ(accesses[2].ref.array(), "a");
}

TEST(NestBuilder, RejectsDuplicateIvsAndUnknownIvs)
{
    NestBuilder b;
    b.loop("i", 1, 10);
    EXPECT_THROW(b.loop("i", 1, 5), FatalError);
    EXPECT_THROW(b.ref("a", {idx("q")}), FatalError);
}

Program
buildSaxpyProgram()
{
    Program program;
    program.setParamDefault("n", 6);
    program.setParamDefault("m", 5);
    program.declareArray({"a", {Bound::param("n")}});
    program.declareArray({"b", {Bound::param("m")}});
    program.addNest(buildSaxpyNest());
    return program;
}

TEST(Validation, AcceptsGoodProgram)
{
    Program program = buildSaxpyProgram();
    EXPECT_TRUE(validateProgram(program).empty());
}

TEST(Validation, FlagsProblems)
{
    Program program = buildSaxpyProgram();
    // Undeclared array.
    NestBuilder b;
    b.loop("i", 1, 4);
    b.assign("zz", {idx("i")}, lit(0.0));
    program.addNest(b.build());
    std::vector<std::string> problems = validateProgram(program);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("zz"), std::string::npos);
}

TEST(Validation, FlagsRankMismatch)
{
    Program program = buildSaxpyProgram();
    NestBuilder b;
    b.loop("i", 1, 4);
    b.assign("a", {idx("i"), idx("i", 1)}, lit(0.0));
    // Note: two subscripts on rank-1 'a', and also non-separable rows.
    program.addNest(b.build());
    std::vector<std::string> problems = validateProgram(program);
    EXPECT_FALSE(problems.empty());
}

TEST(Interpreter, SaxpyComputesExpectedSums)
{
    Program program = buildSaxpyProgram();
    Interpreter interp(program);
    // a starts at zero; set b(i) = i via direct writes using a seeded
    // pattern is awkward, so run with all-zero arrays: result zero.
    interp.run();
    for (std::int64_t j = 1; j <= 6; ++j)
        EXPECT_EQ(interp.element("a", {j}), 0.0);
    // Loads: a(j) and b(i) per iteration; stores: a(j).
    EXPECT_EQ(interp.iterationCount(), 30u);
    EXPECT_EQ(interp.loadCount(), 60u);
    EXPECT_EQ(interp.storeCount(), 30u);
}

TEST(Interpreter, SeededRunAccumulates)
{
    Program program = buildSaxpyProgram();
    Interpreter interp(program);
    interp.seedArrays(42);
    // Record b's values before the run (the nest does not write b).
    double expected[7] = {0, 0, 0, 0, 0, 0, 0};
    double bsum = 0.0;
    for (std::int64_t i = 1; i <= 5; ++i)
        bsum += interp.element("b", {i});
    for (std::int64_t j = 1; j <= 6; ++j)
        expected[j] = interp.element("a", {j}) + bsum;
    interp.run();
    for (std::int64_t j = 1; j <= 6; ++j)
        EXPECT_NEAR(interp.element("a", {j}), expected[j], 1e-12);
}

TEST(Interpreter, ParamOverrides)
{
    Program program = buildSaxpyProgram();
    Interpreter interp(program, {{"n", 2}, {"m", 3}});
    interp.run();
    EXPECT_EQ(interp.iterationCount(), 6u);
}

TEST(Interpreter, HaloToleratesSmallOverrun)
{
    Program program;
    program.declareArray({"a", {Bound::constant(4)}});
    NestBuilder b;
    b.loop("i", 1, 4);
    b.assign("a", {idx("i")}, b.read("a", {idx("i", 2)}));
    program.addNest(b.build());
    Interpreter interp(program);
    EXPECT_NO_THROW(interp.run()); // reads a(5), a(6): inside the halo
}

TEST(Interpreter, FarOutOfBoundsIsFatal)
{
    Program program;
    program.declareArray({"a", {Bound::constant(4)}});
    NestBuilder b;
    b.loop("i", 1, 4);
    b.assign("a", {idx("i")}, b.read("a", {idx("i", 100)}));
    program.addNest(b.build());
    Interpreter interp(program);
    EXPECT_THROW(interp.run(), FatalError);
}

TEST(Interpreter, AccessCallbackSeesColumnMajorAddresses)
{
    Program program;
    program.declareArray(
        {"a", {Bound::constant(4), Bound::constant(4)}});
    NestBuilder b;
    b.loop("j", 1, 2).loop("i", 1, 2);
    b.assign("a", {idx("i"), idx("j")}, lit(1.0));
    program.addNest(b.build());

    Interpreter interp(program);
    std::vector<std::int64_t> addrs;
    interp.setAccessCallback([&](std::int64_t addr, MemAccessKind kind) {
        EXPECT_EQ(kind, MemAccessKind::Write);
        addrs.push_back(addr);
    });
    interp.run();
    ASSERT_EQ(addrs.size(), 4u);
    // Column-major: consecutive i differ by 1, consecutive j by the
    // padded column stride.
    EXPECT_EQ(addrs[1] - addrs[0], 1);
    EXPECT_EQ(addrs[3] - addrs[2], 1);
    EXPECT_EQ(addrs[2] - addrs[0], addrs[3] - addrs[1]);
    EXPECT_GT(addrs[2] - addrs[0], 1);
}

TEST(Interpreter, PreheaderRunsPerOuterIteration)
{
    // s accumulates a(1, j) once per outer iteration via preheader.
    Program program;
    program.declareArray({"cnt", {Bound::constant(8)}});
    NestBuilder b;
    b.loop("j", 1, 3).loop("i", 1, 4);
    b.assign("cnt", {idx("j")},
             add(b.read("cnt", {idx("j")}), Expr::scalar("s")));
    LoopNest nest = b.build();
    // Preheader: s = 2.0 (executed once per j).
    nest.preheader().push_back(Stmt::assignScalar("s", lit(2.0)));
    program.addNest(nest);

    Interpreter interp(program);
    interp.run();
    for (std::int64_t j = 1; j <= 3; ++j)
        EXPECT_EQ(interp.element("cnt", {j}), 8.0); // 4 iterations x 2.0
    EXPECT_EQ(interp.scalar("s"), 2.0);
}

TEST(Interpreter, CompareArraysDetectsDifferences)
{
    Program program = buildSaxpyProgram();
    Interpreter a(program);
    Interpreter b(program);
    a.seedArrays(7);
    b.seedArrays(7);
    EXPECT_EQ(a.compareArrays(b, 1e-12), "");
    a.run();
    std::string diff = a.compareArrays(b, 1e-12);
    EXPECT_NE(diff, "");
    EXPECT_NE(diff.find("'a'"), std::string::npos);
}

TEST(Printer, RendersNestSource)
{
    LoopNest nest = buildSaxpyNest();
    std::string text = renderLoopNest(nest);
    EXPECT_NE(text.find("do j = 1, n"), std::string::npos);
    EXPECT_NE(text.find("do i = 1, m"), std::string::npos);
    EXPECT_NE(text.find("a(j) = (a(j) + b(i))"), std::string::npos);
    EXPECT_NE(text.find("end do"), std::string::npos);
}

TEST(Printer, RendersProgramWithDeclarations)
{
    Program program = buildSaxpyProgram();
    std::string text = renderProgram(program);
    EXPECT_NE(text.find("param n = 6"), std::string::npos);
    EXPECT_NE(text.find("real a(n)"), std::string::npos);
    EXPECT_NE(text.find("! nest: sum"), std::string::npos);
}

TEST(Printer, RendersStepAndAlignedBounds)
{
    NestBuilder b;
    b.loop("j", Bound::constant(1),
           Bound::alignedUpper(Bound::constant(1), Bound::param("n"), 2), 2);
    b.assign("a", {idx("j")}, lit(0.0));
    std::string text = renderLoopNest(b.build());
    EXPECT_NE(text.find("do j = 1, align(1, n, 2), 2"), std::string::npos);
}

} // namespace
} // namespace ujam
