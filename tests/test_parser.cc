/**
 * @file
 * Unit tests for the DSL lexer and parser, including print/parse
 * round trips.
 */

#include <bit>

#include <gtest/gtest.h>

#include "ir/interp.hh"
#include "ir/printer.hh"
#include "ir/validate.hh"
#include "parser/lexer.hh"
#include "parser/parser.hh"
#include "support/diagnostics.hh"

namespace ujam
{
namespace
{

TEST(Lexer, TokenizesBasics)
{
    auto tokens = tokenize("do i = 1, n\n  a(i) = 2.5 * b(i-1)\nend do\n");
    ASSERT_GT(tokens.size(), 10u);
    EXPECT_EQ(tokens[0].kind, TokenKind::Ident);
    EXPECT_EQ(tokens[0].text, "do");
    EXPECT_EQ(tokens[1].text, "i");
    EXPECT_EQ(tokens[2].kind, TokenKind::Equals);
    EXPECT_EQ(tokens[3].kind, TokenKind::Integer);
    EXPECT_EQ(tokens[3].intValue, 1);
    EXPECT_EQ(tokens.back().kind, TokenKind::End);
}

TEST(Lexer, FloatsAndCase)
{
    auto tokens = tokenize("X = 2.5");
    EXPECT_EQ(tokens[0].text, "x"); // case folded
    EXPECT_EQ(tokens[2].kind, TokenKind::Float);
    EXPECT_DOUBLE_EQ(tokens[2].floatValue, 2.5);
}

TEST(Lexer, CommentsAndNestNames)
{
    auto tokens = tokenize("! plain comment\n! nest: mm_jik\ndo i = 1, 2\n");
    EXPECT_EQ(tokens[0].kind, TokenKind::NestName);
    EXPECT_EQ(tokens[0].text, "mm_jik");
}

TEST(Lexer, TracksLineNumbers)
{
    auto tokens = tokenize("a = 1\nb = 2\n");
    // find token 'b'
    bool found = false;
    for (const Token &t : tokens) {
        if (t.kind == TokenKind::Ident && t.text == "b") {
            EXPECT_EQ(t.line, 2);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Lexer, RejectsStrayCharacters)
{
    EXPECT_THROW(tokenize("a = 1 @ 2"), FatalError);
}

const char *kSaxpySource = R"(
param n = 8
param m = 4
real a(n)
real b(m)

! nest: sum
do j = 1, n
  do i = 1, m
    a(j) = a(j) + b(i)
  end do
end do
)";

TEST(Parser, ParsesProgram)
{
    Program program = parseProgram(kSaxpySource);
    EXPECT_EQ(program.paramDefaults().at("n"), 8);
    EXPECT_EQ(program.paramDefaults().at("m"), 4);
    ASSERT_EQ(program.nests().size(), 1u);
    const LoopNest &nest = program.nests()[0];
    EXPECT_EQ(nest.name(), "sum");
    EXPECT_EQ(nest.depth(), 2u);
    EXPECT_EQ(nest.loop(0).iv, "j");
    EXPECT_EQ(nest.loop(1).iv, "i");
    ASSERT_EQ(nest.body().size(), 1u);
    EXPECT_TRUE(nest.body()[0].isReduction());
    EXPECT_TRUE(validateProgram(program).empty());
}

TEST(Parser, SubscriptForms)
{
    LoopNest nest = parseSingleNest(R"(
do j = 1, 10
  do i = 1, 10
    a(2*i-1, j+2) = b(i, 3) + c(4)
  end do
end do
)");
    auto accesses = nest.accesses();
    ASSERT_EQ(accesses.size(), 3u);
    // b(i, 3)
    EXPECT_EQ(accesses[0].ref.array(), "b");
    EXPECT_EQ(accesses[0].ref.row(0), (IntVector{0, 1}));
    EXPECT_EQ(accesses[0].ref.offset(), (IntVector{0, 3}));
    // c(4): depth matches nest, all-zero row.
    EXPECT_EQ(accesses[1].ref.row(0), (IntVector{0, 0}));
    EXPECT_EQ(accesses[1].ref.offset(), (IntVector{4}));
    // a(2*i-1, j+2) write
    EXPECT_TRUE(accesses[2].isWrite);
    EXPECT_EQ(accesses[2].ref.row(0), (IntVector{0, 2}));
    EXPECT_EQ(accesses[2].ref.offset(), (IntVector{-1, 2}));
}

TEST(Parser, ExpressionPrecedence)
{
    LoopNest nest = parseSingleNest(R"(
do i = 1, 4
  x = 1 + 2 * 3 - 4 / 2
end do
)");
    // Evaluate via interpreter to confirm shape: 1 + 6 - 2 = 5.
    Program program;
    program.addNest(nest);
    Interpreter interp(program);
    interp.run();
    EXPECT_DOUBLE_EQ(interp.scalar("x"), 5.0);
}

TEST(Parser, UnaryMinusAndParens)
{
    LoopNest nest = parseSingleNest(R"(
do i = 1, 1
  x = -(2 + 3) * -2.0
end do
)");
    Program program;
    program.addNest(nest);
    Interpreter interp(program);
    interp.run();
    EXPECT_DOUBLE_EQ(interp.scalar("x"), 10.0);
}

TEST(Parser, TripleNestAndStep)
{
    LoopNest nest = parseSingleNest(R"(
do k = 1, 10, 2
  do j = 1, 10
    do i = 1, 10
      a(i, j, k) = 0
    end do
  end do
end do
)");
    EXPECT_EQ(nest.depth(), 3u);
    EXPECT_EQ(nest.loop(0).step, 2);
    EXPECT_EQ(nest.loop(2).iv, "i");
}

TEST(Parser, SymbolicBounds)
{
    Program program = parseProgram(R"(
param n = 20
real a(2*n + 1)
do i = 2, 2*n - 1
  a(i) = 0
end do
)");
    const Loop &loop = program.nests()[0].loop(0);
    EXPECT_EQ(loop.lower.evaluate(program.paramDefaults()), 2);
    EXPECT_EQ(loop.upper.evaluate(program.paramDefaults()), 39);
    EXPECT_EQ(program.array("a").extents[0].evaluate(
                  program.paramDefaults()),
              41);
}

TEST(Parser, AlignBoundsAndPre)
{
    Program program = parseProgram(R"(
param n = 10
real a(n)
real b(n)
do j = 1, align(1, n, 3), 3
  do i = 1, n
    pre t0 = a(j)
    b(i) = t0 + b(i)
  end do
end do
)");
    const LoopNest &nest = program.nests()[0];
    EXPECT_EQ(nest.loop(0).upper.evaluate(program.paramDefaults()), 9);
    ASSERT_EQ(nest.preheader().size(), 1u);
    EXPECT_FALSE(nest.preheader()[0].lhsIsArray());
    EXPECT_EQ(nest.preheader()[0].lhsScalar(), "t0");
}

TEST(Parser, ScalarAssignment)
{
    LoopNest nest = parseSingleNest(R"(
do i = 1, 5
  t = a(i)
  a(i) = t * t
end do
)");
    ASSERT_EQ(nest.body().size(), 2u);
    EXPECT_FALSE(nest.body()[0].lhsIsArray());
    EXPECT_TRUE(nest.body()[1].lhsIsArray());
}

TEST(Parser, ErrorsCarryFileLineAndColumn)
{
    try {
        parseProgram("do i = 1, 5\n  a(i = 2\nend do\n");
        FAIL() << "expected syntax error";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("<input>:2:"),
                  std::string::npos)
            << err.what();
    }
    try {
        parseProgram("do i = 1, 5\n  a(i = 2\nend do\n", "bad.uj");
        FAIL() << "expected syntax error";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("bad.uj:2:"),
                  std::string::npos)
            << err.what();
    }
}

TEST(Parser, StampsSourceLocations)
{
    Program program = parseProgram(
        "param n = 8\nreal a(n)\n! nest: k\ndo i = 1, n\n"
        "  a(i) = a(i) + 1.0\nend do\n",
        "loc.uj");
    EXPECT_EQ(program.sourceName(), "loc.uj");
    ASSERT_EQ(program.nests().size(), 1u);
    const LoopNest &nest = program.nests().front();
    EXPECT_EQ(nest.loop(0).loc.line, 4);
    EXPECT_EQ(nest.loop(0).loc.col, 1);
    ASSERT_EQ(nest.body().size(), 1u);
    EXPECT_EQ(nest.body()[0].loc().line, 5);
    EXPECT_EQ(nest.body()[0].loc().col, 3);
    EXPECT_EQ(nest.body()[0].lhsRef().loc().line, 5);
    std::vector<Access> accesses = nest.accesses();
    ASSERT_EQ(accesses.size(), 2u);
    // The RHS read points at its own column, not the statement's.
    EXPECT_EQ(accesses[0].ref.loc().line, 5);
    EXPECT_EQ(accesses[0].ref.loc().col, 10);
    // Locations never participate in structural equality.
    EXPECT_EQ(accesses[0].ref, accesses[1].ref);
}

TEST(Parser, RejectsUnknownIvInSubscript)
{
    EXPECT_THROW(parseSingleNest("do i = 1, 5\n  a(q) = 0\nend do\n"),
                 FatalError);
}

TEST(Parser, RejectsImperfectNest)
{
    // A statement between the loops is not part of the grammar unless
    // marked 'pre'.
    EXPECT_THROW(parseProgram(R"(
do j = 1, 5
  x = 0
  do i = 1, 5
    a(i, j) = x
  end do
end do
)"),
                 FatalError);
}

TEST(Parser, RejectsMissingEnd)
{
    EXPECT_THROW(parseProgram("do i = 1, 5\n  a(i) = 0\n"), FatalError);
}

TEST(Parser, MultipleNests)
{
    Program program = parseProgram(R"(
real a(10)
! nest: first
do i = 1, 10
  a(i) = 1
end do
! nest: second
do i = 1, 10
  a(i) = a(i) + 1
end do
)");
    ASSERT_EQ(program.nests().size(), 2u);
    EXPECT_EQ(program.nests()[0].name(), "first");
    EXPECT_EQ(program.nests()[1].name(), "second");
}

TEST(Parser, PrintParseRoundTrip)
{
    Program program = parseProgram(kSaxpySource);
    std::string printed = renderProgram(program);
    Program reparsed = parseProgram(printed);
    ASSERT_EQ(reparsed.nests().size(), 1u);

    // Semantics must survive the round trip.
    Interpreter a(program);
    Interpreter b(reparsed);
    a.seedArrays(3);
    b.seedArrays(3);
    a.run();
    b.run();
    EXPECT_EQ(a.compareArrays(b, 0.0), "");
}

TEST(Parser, RoundTripWithPreheaderAndStep)
{
    const char *source = R"(
param n = 9
real a(n)
real b(n)
do j = 1, align(1, n, 2), 2
  do i = 1, n
    pre t0 = a(j)
    b(i) = t0 + b(i) + a(j+1)
  end do
end do
)";
    Program program = parseProgram(source);
    Program reparsed = parseProgram(renderProgram(program));
    Interpreter x(program);
    Interpreter y(reparsed);
    x.seedArrays(11);
    y.seedArrays(11);
    x.run();
    y.run();
    EXPECT_EQ(x.compareArrays(y, 0.0), "");
    EXPECT_EQ(reparsed.nests()[0].preheader().size(), 1u);
    EXPECT_EQ(reparsed.nests()[0].loop(0).step, 2);
}

TEST(Parser, NonIntegralConstantsRoundTripEveryDigit)
{
    // Printing keeps every digit a constant needs to read back as the
    // same double, in fixed notation (the lexer takes no exponents):
    // six significant digits turned 0.1234567 into 0.123457.
    for (const char *constant :
         {"0.1234567", "1234567.5", "0.0000001", "2.84"}) {
        SCOPED_TRACE(constant);
        Program program = parseProgram(
            concat("real a(4)\nreal b(4)\ndo i = 1, 4\n  a(i) = b(i) * ",
                   constant, "\nend do\n"));
        const Stmt &stmt = program.nests()[0].body()[0];
        std::string printed = renderProgram(program);
        EXPECT_NE(printed.find(concat("* ", constant, ")")),
                  std::string::npos)
            << printed;

        Program reparsed = parseProgram(printed);
        const Stmt &again = reparsed.nests()[0].body()[0];
        EXPECT_EQ(again.rhs()->rhs()->constantValue(),
                  stmt.rhs()->rhs()->constantValue());
        EXPECT_EQ(renderProgram(reparsed), printed);
    }
}

TEST(Parser, ConstantsRoundTripBitForBit)
{
    // Every constant prints in fixed notation and reads back as the
    // same double. The integral branch printed -0.0 as 0.0, and past
    // 2^63 its int64 cast was undefined and the text lacked the ".0"
    // a float literal needs.
    for (double value : {-0.0, 0.5, 3.0, -3.0, 1152921504606846976.0,
                         1e20}) {
        SCOPED_TRACE(value);
        Program program = parseProgram(
            "real a(4)\nreal b(4)\ndo i = 1, 4\n  a(i) = b(i) * 2.0\n"
            "end do\n");
        Stmt &stmt = program.nests()[0].body()[0];
        stmt.setRhs(Expr::binary(BinOp::Mul, stmt.rhs()->lhs(),
                                 Expr::constant(value)));

        Program reparsed = parseProgram(renderProgram(program));
        ASSERT_EQ(reparsed.nests().size(), 1u);
        EXPECT_TRUE(reparsed.nests()[0] == program.nests()[0])
            << renderProgram(reparsed);
        double again =
            reparsed.nests()[0].body()[0].rhs()->rhs()->constantValue();
        EXPECT_EQ(std::bit_cast<std::uint64_t>(again),
                  std::bit_cast<std::uint64_t>(value));
    }
}

// --- hardening regressions: reduced inputs from the fuzz sweep ------
//
// Each case below previously crashed (stack overflow), hung (infinite
// loop / runaway allocation), or silently mis-lexed. All must now be
// rejected with a FatalError.

TEST(ParserHardening, DeepLoopNestingIsFatalNotStackOverflow)
{
    std::string source;
    for (int i = 0; i < 1000; ++i)
        source += concat("do i", std::to_string(i), " = 1, 2\n");
    source += "x = 1\n";
    for (int i = 0; i < 1000; ++i)
        source += "end do\n";
    EXPECT_THROW(parseProgram(source), FatalError);
}

TEST(ParserHardening, DeepParensAreFatalNotStackOverflow)
{
    std::string source = "do i = 1, 2\n  x = ";
    source.append(100000, '(');
    source += "1";
    source.append(100000, ')');
    source += "\nend do\n";
    EXPECT_THROW(parseProgram(source), FatalError);
}

TEST(ParserHardening, LongUnaryMinusChainIsFatalNotStackOverflow)
{
    std::string source = "do i = 1, 2\n  x = ";
    source.append(100000, '-');
    source += "1\nend do\n";
    EXPECT_THROW(parseProgram(source), FatalError);
}

TEST(ParserHardening, DeepAlignNestingIsFatalNotStackOverflow)
{
    std::string source = "do i = 1, ";
    for (int k = 0; k < 10000; ++k)
        source += "align(1, ";
    source += "5";
    for (int k = 0; k < 10000; ++k)
        source += ", 2)";
    source += "\n  x = 1\nend do\n";
    EXPECT_THROW(parseProgram(source), FatalError);
}

TEST(ParserHardening, ModerateNestingStillParses)
{
    // The depth caps must not reject reasonable programs.
    std::string source;
    for (int i = 0; i < 16; ++i)
        source += concat("do i", std::to_string(i), " = 1, 2\n");
    source += "  x = ((((1 + 2))))\n";
    for (int i = 0; i < 16; ++i)
        source += "end do\n";
    Program program = parseProgram(source);
    EXPECT_EQ(program.nests().at(0).depth(), 16u);
}

TEST(ParserHardening, ZeroStepIsFatalNotInfiniteLoop)
{
    // Interpreting "do i = 1, 5, 0" used to spin forever.
    EXPECT_THROW(parseProgram("do i = 1, 5, 0\n  x = 1\nend do\n"),
                 FatalError);
}

TEST(ParserHardening, InterpreterRejectsNonPositiveStep)
{
    // Programmatically built nests bypass the parser's step check.
    LoopNest nest = parseSingleNest("do i = 1, 5\n  x = 1\nend do\n");
    nest.loop(0).step = 0;
    Program program;
    program.addNest(std::move(nest));
    Interpreter interp(program);
    EXPECT_THROW(interp.run(), FatalError);
}

TEST(ParserHardening, HugeIntegerLiteralIsFatal)
{
    // 92233720368547 * 100000 used to overflow int64 during bound
    // evaluation (undefined behaviour).
    EXPECT_THROW(parseProgram("param n = 92233720368547\n"), FatalError);
    EXPECT_THROW(tokenize("x = 99999999999999999999999999"), FatalError);
    // The cap itself is accepted.
    auto tokens = tokenize("x = 1000000000");
    EXPECT_EQ(tokens[2].intValue, 1000000000);
}

TEST(ParserHardening, HugeArrayExtentIsFatalInInterpreter)
{
    // 1016^3 elements (halo included) would allocate ~8.5 GB and
    // previously hung the host; the interpreter now refuses.
    Program program = parseProgram(R"(
param n = 1000
real a(n, n, n)
do i = 1, n
  a(i, 1, 1) = 0
end do
)");
    EXPECT_THROW(Interpreter interp(program), FatalError);
}

TEST(ParserHardening, MultiDotLiteralIsFatalNotSilentPrefixParse)
{
    // "1..5" used to lex as 1.0 with the "..5" silently dropped.
    EXPECT_THROW(tokenize("x = 1..5"), FatalError);
    EXPECT_THROW(tokenize("x = 1.2.3"), FatalError);
}

TEST(ParserHardening, TruncatedInputsAreFatalNotHangs)
{
    const char *cases[] = {
        "do",
        "do i",
        "do i =",
        "do i = 1,",
        "do i = 1, 5",
        "do i = 1, 5\n  a(i",
        "do i = 1, 5\n  a(i) = ",
        "do i = 1, 5\n  a(i) = b(",
        "do i = 1, 5\n  x = 1\n",
        "real a(",
        "real a(n",
        "param n",
        "param n =",
        "do i = 1, align(1, n\n",
    };
    for (const char *text : cases)
        EXPECT_THROW(parseProgram(text), FatalError) << text;
}

} // namespace
} // namespace ujam
