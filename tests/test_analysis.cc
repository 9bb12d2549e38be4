/**
 * @file
 * The static analyzer: rule catalog, renderers (golden files), the
 * lint-aware pipeline, and the accuracy contract against the
 * differential oracle -- every nest the safety net rolls back must
 * already carry an error finding, purely statically.
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "analysis/findings_baseline.hh"
#include "analysis/linter.hh"
#include "analysis/render.hh"
#include "core/optimizer.hh"
#include "driver/driver.hh"
#include "ir/builder.hh"
#include "ir/printer.hh"
#include "ir/validate.hh"
#include "parser/parser.hh"
#include "report/report.hh"
#include "scenarios/sweep.hh"
#include "support/diagnostics.hh"
#include "transform/unroll_and_jam.hh"
#include "workloads/corpus.hh"
#include "workloads/suite.hh"

namespace
{

using namespace ujam;

MachineModel
alpha()
{
    return MachineModel::decAlpha21064();
}

LintResult
lintSource(const std::string &source,
           const std::string &name = "<input>",
           const LintOptions &options = {})
{
    return lintProgram(parseProgram(source, name), alpha(), options);
}

/** All findings for one rule id. */
std::vector<LintDiagnostic>
findingsFor(const LintResult &result, const std::string &rule)
{
    std::vector<LintDiagnostic> out;
    for (const LintDiagnostic &diag : result.diagnostics) {
        if (diag.ruleId == rule)
            out.push_back(diag);
    }
    return out;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

const std::string kGoldenDir = UJAM_TEST_GOLDEN_DIR;

// --- rule catalog stability -----------------------------------------

TEST(LintCatalog, RuleIdsAreStable)
{
    // Appending new rules is fine; renumbering or dropping one breaks
    // every consumer of the SARIF output. This list is the contract.
    std::vector<std::string> expected = {
        "UJ001", "UJ002", "UJ003", "UJ004", "UJ005", "UJ006", "UJ007",
        "UJ008", "UJ009", "UJ010", "UJ011", "UJ012", "UJ013", "UJ014",
        "UJ015", "UJ016", "UJ017", "UJ018", "UJ019", "UJ020", "UJ021",
        "UJ022",
    };
    ASSERT_GE(lintRules().size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(lintRules()[i]->id(), expected[i]);
        EXPECT_STRNE(lintRules()[i]->summary(), "");
        // --explain renders details(); every rule must have a story.
        EXPECT_STRNE(lintRules()[i]->details(), "");
    }
}

// --- individual rules -----------------------------------------------

TEST(LintRules, PerfectNestViolation)
{
    LintResult result = lintSource("param n = 8\n"
                                   "real a(n, n)\n"
                                   "do i = 1, n\n"
                                   "  do j = 1, n\n"
                                   "    pre t = a(i, 1)\n"
                                   "    a(i, j) = a(i, j) + t\n"
                                   "  end do\n"
                                   "end do\n");
    auto findings = findingsFor(result, "UJ001");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].severity, LintSeverity::Error);
    EXPECT_EQ(findings[0].loc.line, 5);
}

TEST(LintRules, ShallowNestNote)
{
    LintResult result = lintSource("param n = 8\n"
                                   "real a(n)\n"
                                   "do i = 1, n\n"
                                   "  a(i) = a(i) + 1.0\n"
                                   "end do\n");
    auto findings = findingsFor(result, "UJ002");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].severity, LintSeverity::Note);
    EXPECT_EQ(result.errorCount(), 0u);
}

TEST(LintRules, UndeclaredArrayAndRankMismatch)
{
    LintResult result = lintSource("param n = 8\n"
                                   "real a(n, n)\n"
                                   "do i = 1, n\n"
                                   "  do j = 1, n\n"
                                   "    a(i, j) = c(i, j) + 1.0\n"
                                   "  end do\n"
                                   "end do\n");
    auto findings = findingsFor(result, "UJ003");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("undeclared array 'c'"),
              std::string::npos);
    EXPECT_EQ(findings[0].loc.line, 5);
    EXPECT_TRUE(result.nestHasErrors(0));
}

TEST(LintRules, UnevaluableBound)
{
    // Builder-made program: loop bound over a parameter that has no
    // default. The parser cannot produce this; the API can.
    Program program;
    program.declareArray({"a", {Bound::constant(8), Bound::constant(8)}});
    LoopNest nest = NestBuilder()
                        .name("unevaluable")
                        .loop("i", 1, 8)
                        .loop("j", 1, 8)
                        .assign("a", {idx("i"), idx("j")}, lit(0.0))
                        .build();
    nest.loop(0).upper = Bound::param("m");
    program.addNest(nest);

    LintResult result = lintProgram(program, alpha(), {});
    auto findings = findingsFor(result, "UJ004");
    ASSERT_GE(findings.size(), 1u);
    EXPECT_EQ(findings[0].severity, LintSeverity::Error);
    EXPECT_NE(findings[0].message.find("does not evaluate"),
              std::string::npos);
}

TEST(LintRules, NonRectangularBound)
{
    Program program;
    program.declareArray({"a", {Bound::constant(8), Bound::constant(8)}});
    LoopNest nest = NestBuilder()
                        .name("triangular")
                        .loop("i", 1, 8)
                        .loop("j", 1, 8)
                        .assign("a", {idx("i"), idx("j")}, lit(0.0))
                        .build();
    nest.loop(1).upper = Bound::param("i"); // triangular: j <= i
    program.addNest(nest);

    LintResult result = lintProgram(program, alpha(), {});
    auto findings = findingsFor(result, "UJ005");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("rectangular"), std::string::npos);
}

TEST(LintRules, ZeroTripWarning)
{
    LintResult result = lintSource("param n = 8\n"
                                   "real a(n, n)\n"
                                   "do i = n, 1\n"
                                   "  do j = 1, n\n"
                                   "    a(i, j) = a(i, j) + 1.0\n"
                                   "  end do\n"
                                   "end do\n");
    auto findings = findingsFor(result, "UJ006");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].severity, LintSeverity::Warn);
    EXPECT_EQ(findings[0].loc.line, 3);
}

TEST(LintRules, OverflowRiskWarning)
{
    Program program;
    program.declareArray({"a", {Bound::constant(8)}});
    LoopNest nest = NestBuilder()
                        .name("huge")
                        .loop("i", 1, 8)
                        .assign("a", {idx("i")}, lit(0.0))
                        .build();
    nest.loop(0).upper = Bound::constant(std::int64_t(1) << 33);
    program.addNest(nest);

    LintResult result = lintProgram(program, alpha(), {});
    auto findings = findingsFor(result, "UJ007");
    ASSERT_GE(findings.size(), 1u);
    EXPECT_EQ(findings[0].severity, LintSeverity::Warn);
}

TEST(LintRules, CoupledSubscriptsWarning)
{
    LintResult result = lintSource("param n = 8\n"
                                   "real a(n, n)\n"
                                   "do i = 1, n\n"
                                   "  do j = 1, n\n"
                                   "    a(i + j, j) = a(i + j, j) + 1.0\n"
                                   "  end do\n"
                                   "end do\n");
    auto findings = findingsFor(result, "UJ008");
    // One finding per distinct reference shape, not per occurrence.
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].severity, LintSeverity::Warn);
    EXPECT_NE(findings[0].message.find("coupled"), std::string::npos);
}

TEST(LintRules, ReachViolation)
{
    LintResult result = lintSource("param n = 8\n"
                                   "real a(n, n)\n"
                                   "real b(n, n)\n"
                                   "do i = 1, n\n"
                                   "  do j = 1, n\n"
                                   "    b(i, j) = a(i + 20, j)\n"
                                   "  end do\n"
                                   "end do\n");
    auto findings = findingsFor(result, "UJ009");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].severity, LintSeverity::Error);
    EXPECT_EQ(findings[0].loc.line, 6);
    EXPECT_NE(findings[0].message.find("outside extent"),
              std::string::npos);
}

TEST(LintRules, CarriedScalarError)
{
    LintResult result = lintSource("param n = 8\n"
                                   "real a(n, n)\n"
                                   "real b(n, n)\n"
                                   "do i = 1, n\n"
                                   "  do j = 1, n\n"
                                   "    b(i, j) = s + 1.0\n"
                                   "    s = a(i, j) * 2.0\n"
                                   "  end do\n"
                                   "end do\n");
    auto findings = findingsFor(result, "UJ010");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].severity, LintSeverity::Error);
    EXPECT_EQ(findings[0].loc.line, 6);
}

TEST(LintRules, ScalarReductionIsANoteNotAnError)
{
    LintResult result = lintSource("param n = 8\n"
                                   "real a(n, n)\n"
                                   "do i = 1, n\n"
                                   "  do j = 1, n\n"
                                   "    s = s + a(i, j)\n"
                                   "  end do\n"
                                   "end do\n");
    auto findings = findingsFor(result, "UJ010");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].severity, LintSeverity::Note);
    EXPECT_NE(findings[0].message.find("reduction"), std::string::npos);
    EXPECT_EQ(result.errorCount(), 0u);
}

TEST(LintRules, BlockedUnrollExplanation)
{
    // Flow dependence b(i,j) -> b(i-1,j+1): carried by i at distance
    // 1 with a backward inner component, so i is not unrollable.
    LintResult result = lintSource("param n = 8\n"
                                   "real b(n, n)\n"
                                   "do i = 2, n\n"
                                   "  do j = 1, n\n"
                                   "    b(i, j) = b(i - 1, j + 1) + 1.0\n"
                                   "  end do\n"
                                   "end do\n");
    auto findings = findingsFor(result, "UJ011");
    ASSERT_GE(findings.size(), 1u);
    EXPECT_EQ(findings[0].severity, LintSeverity::Note);
    EXPECT_NE(findings[0].message.find("loop 'i'"), std::string::npos);
    EXPECT_NE(findings[0].message.find("flow"), std::string::npos);
}

TEST(LintRules, CrossSetWriteWarning)
{
    LintResult result = lintSource("param n = 8\n"
                                   "real a(n, n)\n"
                                   "do i = 1, n\n"
                                   "  do j = 1, n\n"
                                   "    a(i, j) = a(j, i) + 1.0\n"
                                   "  end do\n"
                                   "end do\n");
    auto findings = findingsFor(result, "UJ012");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].severity, LintSeverity::Warn);
    EXPECT_NE(findings[0].message.find("uniformly generated"),
              std::string::npos);
}

TEST(LintRules, InductionVariableMisuse)
{
    LintResult result = lintSource("param n = 8\n"
                                   "real a(n, n)\n"
                                   "do i = 1, n\n"
                                   "  do j = 1, n\n"
                                   "    a(i, j) = i + 1.0\n"
                                   "  end do\n"
                                   "end do\n");
    auto findings = findingsFor(result, "UJ013");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].severity, LintSeverity::Error);
    EXPECT_NE(findings[0].message.find("induction variable"),
              std::string::npos);
}

/** The default sweep manifest's scenario programs: grid x seeds. */
std::vector<Program>
defaultSweepPrograms()
{
    std::vector<Program> programs;
    SweepManifest manifest = defaultSweepManifest();
    for (const SweepFamily &entry : manifest.families) {
        // Odometer over the grid, last entry fastest.
        std::vector<std::size_t> digit(entry.grid.size(), 0);
        for (bool more = true; more;) {
            std::string params;
            for (std::size_t g = 0; g < entry.grid.size(); ++g) {
                params += concat(g ? "," : "", entry.grid[g].first, "=",
                                 entry.grid[g].second[digit[g]]);
            }
            for (std::uint64_t seed : manifest.seeds) {
                std::string error;
                std::optional<ScenarioSpec> spec = parseScenarioSpec(
                    concat(entry.family, ":", params, ":", seed), &error);
                if (!spec) {
                    ADD_FAILURE() << error;
                    continue;
                }
                GeneratedScenario scenario = generateScenario(*spec);
                programs.push_back(
                    parseProgram(scenario.source, scenario.name));
            }
            more = false;
            for (std::size_t g = entry.grid.size(); g-- > 0 && !more;) {
                more = ++digit[g] < entry.grid[g].second.size();
                if (!more)
                    digit[g] = 0;
            }
        }
    }
    return programs;
}

// --- the error rules predict the validator, reference by reference --

/** The two kinds of problem the rules predict for the validator. */
enum class Guard
{
    DeclReach, //!< UJ003 and UJ009
    Iv         //!< UJ013
};

/**
 * @return The words of a declaration, reach or induction-variable
 * problem that the validator and the rules share (each wraps them in
 * its own prefix and explanation), or "" for any other message.
 */
std::string
guardCore(std::string text, Guard guard)
{
    std::size_t where = text.find("body: ");
    if (where != std::string::npos)
        text.erase(0, where + 6);
    auto starts = [&](const char *prefix) {
        return text.rfind(prefix, 0) == 0;
    };
    if (guard == Guard::Iv) {
        if (!starts("assignment to scalar '") && !starts("scalar read of '"))
            return "";
        return text.substr(0, text.find(" ("));
    }
    std::size_t dim = text.find("dimension ");
    if (dim != std::string::npos)
        return text.substr(dim, text.find(';') - dim);
    if (starts("reference to undeclared"))
        text.erase(0, 13);
    bool declaration = starts("undeclared array '") ||
                       text.find("' has rank ") != std::string::npos ||
                       text.find("' has subscript depth ") !=
                           std::string::npos;
    return declaration ? text : "";
}

/** @return The shared words of each message that has them, in order. */
std::vector<std::string>
guardCores(const std::vector<std::string> &messages, Guard guard)
{
    std::vector<std::string> out;
    for (const std::string &message : messages) {
        std::string core = guardCore(message, guard);
        if (!core.empty())
            out.push_back(std::move(core));
    }
    return out;
}

/** @return The sorted distinct entries of cores. */
std::vector<std::string>
distinct(std::vector<std::string> cores)
{
    std::sort(cores.begin(), cores.end());
    cores.erase(std::unique(cores.begin(), cores.end()), cores.end());
    return cores;
}

/** Messages of UJ003, UJ009 and UJ013 on one nest of program. */
std::vector<std::string>
guardFindings(const Program &program, const LoopNest &nest)
{
    const MachineModel machine = alpha();
    const LintOptions options;
    RuleContext ctx(program, nest, 0, machine, options);
    std::vector<LintDiagnostic> findings;
    for (const auto &rule : lintRules()) {
        const std::string id = rule->id();
        if (id == "UJ003" || id == "UJ009" || id == "UJ013")
            rule->check(ctx, findings);
    }
    std::vector<std::string> messages;
    for (const LintDiagnostic &diag : findings)
        messages.push_back(diag.message);
    return messages;
}

/** What the contract checks saw, by kind of validator problem. */
struct GuardCounts
{
    std::size_t refs = 0;  //!< distinct body references probed
    std::size_t stmts = 0; //!< body statements probed
    std::map<std::string, std::size_t> problems; //!< by first word
};

/**
 * The rules' contract on one nest, whose loops and declarations come
 * from program: each distinct body reference, alone in a nest with the
 * same loops, draws the declaration and reach findings the strict
 * validator reports for it, word for word; each body statement alone
 * draws the induction-variable findings the validator reports, in
 * order; and on the whole nest the distinct problems agree.
 */
void
expectRulesPredictValidator(const Program &program, const LoopNest &nest,
                            const std::string &label, GuardCounts &counts)
{
    auto compare = [&](const LoopNest &subject, Guard guard, bool as_set,
                       const std::string &what) {
        std::vector<std::string> expected =
            guardCores(validateNestStrict(program, subject), guard);
        std::vector<std::string> found =
            guardCores(guardFindings(program, subject), guard);
        if (as_set) {
            expected = distinct(std::move(expected));
            found = distinct(std::move(found));
        }
        EXPECT_EQ(found, expected) << label << ": " << what;
        for (const std::string &problem : expected)
            ++counts.problems[problem.substr(0, problem.find(' '))];
    };

    std::set<std::string> probed;
    for (const Access &access : nest.accesses()) {
        const ArrayRef &ref = access.ref;
        if (!probed.insert(ref.array() + "#" + ref.toString()).second)
            continue;
        ++counts.refs;
        LoopNest probe(nest.loops(),
                       {Stmt::assignScalar("probe", Expr::arrayRead(ref))});
        compare(probe, Guard::DeclReach, false,
                "reference " + ref.toString(nest.ivNames()));
    }
    for (const Stmt &stmt : nest.body()) {
        ++counts.stmts;
        compare(LoopNest(nest.loops(), {stmt}), Guard::Iv, false,
                "statement " + renderStmt(stmt, nest.ivNames()));
    }
    compare(nest, Guard::DeclReach, true, "whole nest");
    compare(nest, Guard::Iv, false, "whole nest");
}

TEST(LintRules, GuardsPredictTheValidatorReferenceByReference)
{
    const MachineModel machine = alpha();
    GuardCounts counts;
    std::size_t unrolled = 0;

    // Every suite loop and default-manifest scenario, as written and
    // unroll-and-jammed at (1,1), (2,3) and (3,3) on its two
    // outermost loops, clamped to the safety bounds: the unrolled
    // copies reach into the halo and past it.
    std::vector<Program> programs;
    for (const SuiteLoop &loop : testSuite())
        programs.push_back(loadSuiteProgram(loop));
    for (Program &program : defaultSweepPrograms())
        programs.push_back(std::move(program));
    const std::vector<std::vector<std::int64_t>> vectors = {
        {1, 1}, {2, 3}, {3, 3}};
    for (const Program &program : programs) {
        OptimizerConfig config;
        config.params = program.paramDefaults();
        for (const LoopNest &nest : program.nests()) {
            const std::string label =
                program.sourceName() + " " + nest.name();
            expectRulesPredictValidator(program, nest, label, counts);
            if (nest.depth() < 2 || !nest.allRefsAnalyzable())
                continue;
            const IntVector bounds =
                unrollProblem(nest, machine, config).safetyBounds;
            for (const std::vector<std::int64_t> &vec : vectors) {
                IntVector u(nest.depth());
                for (std::size_t k = 0; k < 2 && k + 1 < nest.depth(); ++k)
                    u[k] = std::min(vec[k], bounds[k]);
                if (u.isZero())
                    continue;
                for (const LoopNest &piece : unrollAndJamNest(nest, u)) {
                    expectRulesPredictValidator(
                        program, piece, label + " at " + u.toString(),
                        counts);
                    ++unrolled;
                }
            }
        }
    }

    // Hand-built nests with each problem the rules must predict.
    const std::string decls = "param n = 8\n"
                              "real a(n, n)\n"
                              "real b(n)\n";
    const char *bodies[] = {
        "    a(i, j) = c(i, j) + 1.0\n",                   // undeclared
        "    a(i, j) = b(i, j) + a(i) * 3.0\n",            // rank
        "    a(i, j) = a(i + 20, j) + a(i, j - 9)\n"       // reach
        "    a(i - 7, j) = a(i + 8, j) + a(i + 9, j + 1)\n",
        "    a(i, j) = i + 1.0\n"                          // names an iv
        "    j = a(i, j) * 2.0\n",
    };
    // Offsets -10..10 straddle both edges of extent 8 plus halo 8.
    std::string edges;
    for (int off = -10; off <= 10; ++off) {
        std::string shift = off == 0  ? ""
                            : off > 0 ? concat(" + ", off)
                                      : concat(" - ", -off);
        edges += concat("    a(i, j) = a(i", shift, ", j", shift, ")\n");
    }
    std::vector<std::string> hand_built(std::begin(bodies),
                                        std::end(bodies));
    hand_built.push_back(edges);
    for (const std::string &body : hand_built) {
        Program program = parseProgram(decls + "do i = 1, n\n"
                                               "  do j = 1, n\n" +
                                           body + "  end do\nend do\n",
                                       "<hand-built>");
        expectRulesPredictValidator(program, program.nests()[0], body,
                                    counts);
    }
    // A zero-trip loop accesses nothing: no reach problem either side.
    Program empty = parseProgram(decls + "do i = 5, 1\n  do j = 1, n\n"
                                         "    a(i + 30, j) = 1.0\n"
                                         "  end do\nend do\n",
                                 "<zero-trip>");
    expectRulesPredictValidator(empty, empty.nests()[0], "zero-trip",
                                counts);
    // A subscript depth the parser never produces: a(i, j) indexed
    // with three loop columns in a depth-2 nest.
    Program deep = parseProgram(decls, "<depth>");
    ArrayRef lhs("a", {IntVector{1, 0}, IntVector{0, 1}}, IntVector{0, 0});
    ArrayRef wide("a", {IntVector{1, 0, 0}, IntVector{0, 1, 0}},
                  IntVector{0, 0});
    LoopNest mismatched(
        {Loop{"i", Bound::constant(1), Bound::constant(8)},
         Loop{"j", Bound::constant(1), Bound::constant(8)}},
        {Stmt::assignArray(lhs, Expr::arrayRead(wide))});
    expectRulesPredictValidator(deep, mismatched, "depth", counts);

    // The inputs must reach every guard.
    EXPECT_GE(programs.size(), 70u);
    EXPECT_GE(unrolled, 150u);
    EXPECT_GT(counts.refs, 1000u);
    EXPECT_GT(counts.problems["undeclared"], 0u);
    EXPECT_GT(counts.problems["array"], 0u);     // rank
    EXPECT_GT(counts.problems["reference"], 0u); // depth
    EXPECT_GT(counts.problems["dimension"], 10u);
    EXPECT_GT(counts.problems["assignment"], 0u);
    EXPECT_GT(counts.problems["scalar"], 0u);
}

TEST(LintRules, RegisterPressureNote)
{
    // The "shal" suite workload needs 84 registers at its
    // balance-optimal unroll on a 32-register machine; the rule must
    // name both the wish and the settlement.
    Program program = loadSuiteProgram(suiteLoop("shal"));
    LintResult result = lintProgram(program, alpha(), {});
    auto findings = findingsFor(result, "UJ014");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].severity, LintSeverity::Note);
    EXPECT_NE(findings[0].message.find("registers"), std::string::npos);
    EXPECT_NE(findings[0].message.find("settles"), std::string::npos);

    // UJ014 searches one table build twice. Its findings must equal
    // the two-build reference: two full chooseUnrollAmounts runs with
    // the rule's own config, register limit off and then on.
    std::vector<Program> programs;
    for (const SuiteLoop &loop : testSuite())
        programs.push_back(loadSuiteProgram(loop));
    for (Program &scenario : defaultSweepPrograms())
        programs.push_back(std::move(scenario));
    ASSERT_EQ(programs.size(), 19u + 56u);

    const MachineModel machine = alpha();
    LintOptions options;
    options.maxUnroll = 8;
    std::size_t second_builds = 0;
    for (const Program &source : programs) {
        std::map<std::size_t, std::string> got;
        for (const LintDiagnostic &diag :
             findingsFor(lintProgram(source, machine, options), "UJ014"))
            got[diag.nestIndex] = diag.message;

        std::map<std::size_t, std::string> want;
        for (std::size_t n = 0; n < source.nests().size(); ++n) {
            const LoopNest &nest = source.nests()[n];
            if (nest.depth() < 2 || !nest.allRefsAnalyzable())
                continue;
            OptimizerConfig config;
            config.maxUnroll = options.maxUnroll;
            config.limitRegisters = false;
            UnrollDecision unlimited =
                chooseUnrollAmounts(nest, machine, config);
            if (!unlimited.transforms() ||
                unlimited.registers <= machine.fpRegisters)
                continue;
            ++second_builds;
            config.limitRegisters = true;
            UnrollDecision limited =
                chooseUnrollAmounts(nest, machine, config);
            if (limited.unroll == unlimited.unroll)
                continue;
            want[n] = concat(
                "the balance-optimal unroll ", unlimited.unroll.toString(),
                " needs ", unlimited.registers,
                " registers but the machine has ", machine.fpRegisters,
                "; the search settles for ", limited.unroll.toString(),
                " (", limited.registers, " registers)");
        }
        EXPECT_EQ(got, want) << source.sourceName();
    }
    // The limit-on search must be exercised, not just the early exit.
    EXPECT_GT(second_builds, 0u);
}

// --- dataflow-powered rules (UJ015..UJ022) --------------------------

TEST(LintRules, PostTransformReachWarn)
{
    // Untransformed, a(i + 5, j) tops out at 13 <= 8 + halo 8; at the
    // dependence-legal maximum unroll of i the reach grows to 21.
    // Smaller candidates survive, so this is a warning, not an error.
    LintResult result = lintSource("param n = 8\n"
                                   "real a(n, n)\n"
                                   "real b(n, n)\n"
                                   "do i = 1, n\n"
                                   "  do j = 1, n\n"
                                   "    b(i, j) = a(i + 5, j)\n"
                                   "  end do\n"
                                   "end do\n");
    auto findings = findingsFor(result, "UJ015");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].severity, LintSeverity::Warn);
    EXPECT_NE(findings[0].message.find("outside extent"),
              std::string::npos);
    EXPECT_EQ(result.errorCount(), 0u);
}

TEST(LintRules, PostTransformReachError)
{
    // a(i + 8, j) sits exactly at extent + halo untransformed (no
    // UJ009), but already one unrolled copy of i escapes: no
    // transformed version of this nest can pass the reach validator.
    LintResult result = lintSource("param n = 8\n"
                                   "real a(n, n)\n"
                                   "real b(n, n)\n"
                                   "do i = 1, n\n"
                                   "  do j = 1, n\n"
                                   "    b(i, j) = a(i + 8, j)\n"
                                   "  end do\n"
                                   "end do\n");
    EXPECT_TRUE(findingsFor(result, "UJ009").empty());
    auto findings = findingsFor(result, "UJ015");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].severity, LintSeverity::Error);
    EXPECT_NE(findings[0].message.find("single unrolled copy"),
              std::string::npos);
}

TEST(LintRules, ProvenZeroTripSurvivesSymbolicSibling)
{
    // UJ006 needs the whole nest evaluable; the symbolic upper bound
    // on i blinds it. The interval domain still proves j dead from
    // its own constant bounds, and attaches a machine-applicable fix.
    Program program;
    program.declareArray(
        {"a", {Bound::constant(8), Bound::constant(8)}});
    LoopNest nest = NestBuilder()
                        .name("deadj")
                        .loop("i", 1, 8)
                        .loop("j", 8, 1)
                        .assign("a", {idx("i"), idx("j")}, lit(0.0))
                        .build();
    nest.loop(0).upper = Bound::param("m");
    program.addNest(nest);

    LintResult result = lintProgram(program, alpha(), {});
    EXPECT_TRUE(findingsFor(result, "UJ006").empty());
    auto findings = findingsFor(result, "UJ016");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].severity, LintSeverity::Warn);
    EXPECT_NE(findings[0].message.find("zero iterations"),
              std::string::npos);
    ASSERT_TRUE(findings[0].fix.has_value());
    EXPECT_EQ(findings[0].fix->original, "8, 1");
    EXPECT_EQ(findings[0].fix->replacement, "1, 8");
}

TEST(LintRules, FlatIndexOverflowWarning)
{
    // Every subscript stays below 2^31 (so UJ007 is silent), but the
    // column-major fold (j - 1 + halo) * padded-leading-extent tops
    // 2^31 for the trailing dimension.
    LintResult result = lintSource("param n = 50000\n"
                                   "real a(n, n)\n"
                                   "do i = 1, n\n"
                                   "  do j = 1, n\n"
                                   "    a(i, j) = a(i, j) + 1.0\n"
                                   "  end do\n"
                                   "end do\n");
    EXPECT_TRUE(findingsFor(result, "UJ007").empty());
    auto findings = findingsFor(result, "UJ017");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].severity, LintSeverity::Warn);
    EXPECT_NE(findings[0].message.find("32-bit"), std::string::npos);
}

TEST(LintRules, DeadFringeNote)
{
    // A fringe loop starting past its own aligned upper bound: with
    // n = 8 the alignment term is exact (align(1, 8, 4) = 8), so the
    // fringe range [9, 8] is proven empty.
    LintResult result = lintSource("param n = 8\n"
                                   "real a(n, n)\n"
                                   "do i = 1 + align(1, n, 4), n\n"
                                   "  do j = 1, n\n"
                                   "    a(i, j) = a(i, j) + 1.0\n"
                                   "  end do\n"
                                   "end do\n");
    auto findings = findingsFor(result, "UJ018");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].severity, LintSeverity::Note);
    EXPECT_NE(findings[0].message.find("dead code"), std::string::npos);
}

TEST(LintRules, StrideContradictionNote)
{
    // Column-major arrays traversed j-innermost along the second
    // subscript: each innermost iteration moves a full padded column
    // (24 elements >= the 4-element line). All three references
    // qualify; the finding is advice (the locality model prices the
    // misses correctly), so the program stays warning-free.
    LintResult result =
        lintSource("param n = 8\n"
                   "real a(n, n)\n"
                   "real b(n, n)\n"
                   "do i = 1, n\n"
                   "  do j = 1, n\n"
                   "    b(i, j) = a(i, j) + a(i, j - 1)\n"
                   "  end do\n"
                   "end do\n");
    auto findings = findingsFor(result, "UJ019");
    ASSERT_EQ(findings.size(), 3u);
    for (const LintDiagnostic &diag : findings) {
        EXPECT_EQ(diag.severity, LintSeverity::Note);
        EXPECT_NE(diag.message.find("residue class"), std::string::npos);
    }
    EXPECT_EQ(result.warnCount(), 0u);

    // i-innermost traversal is stride-1: no finding.
    LintResult transposed =
        lintSource("param n = 8\n"
                   "real a(n, n)\n"
                   "real b(n, n)\n"
                   "do j = 1, n\n"
                   "  do i = 1, n\n"
                   "    b(i, j) = a(i, j) + 1.0\n"
                   "  end do\n"
                   "end do\n");
    EXPECT_TRUE(findingsFor(transposed, "UJ019").empty());
}

TEST(LintRules, RangeAliasWarning)
{
    // The UJ012 kernel: a written through two subscript matrices.
    // The interval domain sharpens the modeling note into a proof --
    // both sets touch [1, 8] x [1, 8], so they genuinely alias.
    LintResult result = lintSource("param n = 8\n"
                                   "real a(n, n)\n"
                                   "do i = 1, n\n"
                                   "  do j = 1, n\n"
                                   "    a(i, j) = a(j, i) + 1.0\n"
                                   "  end do\n"
                                   "end do\n");
    auto findings = findingsFor(result, "UJ020");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].severity, LintSeverity::Warn);
    EXPECT_NE(findings[0].message.find("provably overlap"),
              std::string::npos);
}

TEST(LintRules, RangePruneReportNote)
{
    // The whole nest is provably dead, so the pre-filter deletes the
    // b(k,j) -> b(k-1,j) dependence; UJ021 reports the deletion.
    LintResult result = lintSource("param n = 8\n"
                                   "real b(n, n)\n"
                                   "do k = 8, 1\n"
                                   "  do j = 1, n\n"
                                   "    b(k, j) = b(k - 1, j) + 1.0\n"
                                   "  end do\n"
                                   "end do\n");
    auto findings = findingsFor(result, "UJ021");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].severity, LintSeverity::Note);
    EXPECT_NE(findings[0].message.find("pre-filter"), std::string::npos);
    EXPECT_NE(findings[0].message.find("provably runs zero iterations"),
              std::string::npos);
}

TEST(LintRules, SingleTripNote)
{
    LintResult result = lintSource("param n = 8\n"
                                   "real a(n, n)\n"
                                   "do i = 5, 5\n"
                                   "  do j = 1, n\n"
                                   "    a(i, j) = a(i, j) + 1.0\n"
                                   "  end do\n"
                                   "end do\n");
    auto findings = findingsFor(result, "UJ022");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].severity, LintSeverity::Note);
    EXPECT_NE(findings[0].message.find("exactly one iteration"),
              std::string::npos);
}

// --- findings baselines ---------------------------------------------

TEST(LintBaseline, RoundTripSuppressesEverythingItRecorded)
{
    std::string source = readFile(kGoldenDir + "/golden.uj");
    LintResult result = lintSource(source, "golden.uj");
    ASSERT_GE(result.diagnostics.size(), 4u);

    std::string text = renderBaseline({result});
    EXPECT_EQ(text.find("#"), 0u); // header comment first
    FindingsBaseline baseline = parseBaseline(text);
    EXPECT_FALSE(baseline.fingerprints.empty());

    LintResult filtered = lintSource(source, "golden.uj");
    std::size_t removed = applyBaseline(filtered, baseline);
    EXPECT_EQ(removed, result.diagnostics.size());
    EXPECT_TRUE(filtered.diagnostics.empty());
}

TEST(LintBaseline, FingerprintIgnoresLocationButNotMessage)
{
    LintDiagnostic diag;
    diag.ruleId = "UJ009";
    diag.nestName = "reach";
    diag.message = "subscript escapes";
    diag.loc = SourceLoc{10, 3};
    std::string a = findingFingerprint("f.uj", diag);
    EXPECT_EQ(a.size(), 16u);

    // Moving the finding does not invalidate a baseline entry...
    diag.loc = SourceLoc{99, 1};
    EXPECT_EQ(findingFingerprint("f.uj", diag), a);
    // ...but a different message (or source) is a different finding.
    diag.message = "subscript escapes further";
    EXPECT_NE(findingFingerprint("f.uj", diag), a);
    diag.message = "subscript escapes";
    EXPECT_NE(findingFingerprint("g.uj", diag), a);
}

TEST(LintBaseline, ParserSkipsCommentsBlanksAndExtraColumns)
{
    FindingsBaseline baseline = parseBaseline(
        "# ujam-lint baseline v1\n"
        "\n"
        "0123456789abcdef UJ001 a.uj nest1\n"
        "fedcba9876543210\n"
        "   \n");
    EXPECT_EQ(baseline.fingerprints.size(), 2u);
    EXPECT_TRUE(baseline.fingerprints.count("0123456789abcdef"));
    EXPECT_TRUE(baseline.fingerprints.count("fedcba9876543210"));
}

// --- linter behavior ------------------------------------------------

TEST(Linter, SeverityOrderingAndFiltering)
{
    std::string source = readFile(kGoldenDir + "/golden.uj");
    LintResult all = lintSource(source, "golden.uj");
    ASSERT_GE(all.diagnostics.size(), 4u);
    for (std::size_t i = 1; i < all.diagnostics.size(); ++i) {
        EXPECT_GE(static_cast<int>(all.diagnostics[i - 1].severity),
                  static_cast<int>(all.diagnostics[i].severity));
    }

    LintOptions errors_only;
    errors_only.minSeverity = LintSeverity::Error;
    LintResult filtered = lintSource(source, "golden.uj", errors_only);
    EXPECT_EQ(filtered.diagnostics.size(), filtered.errorCount());
    EXPECT_EQ(filtered.errorCount(), all.errorCount());
}

TEST(Linter, CleanProgramIsClean)
{
    LintResult result =
        lintSource("param n = 8\n"
                   "real a(n, n)\n"
                   "real b(n, n)\n"
                   "do i = 1, n\n"
                   "  do j = 1, n\n"
                   "    b(i, j) = a(i, j) + a(i, j - 1)\n"
                   "  end do\n"
                   "end do\n");
    EXPECT_EQ(result.errorCount(), 0u);
    EXPECT_EQ(result.warnCount(), 0u);
}

TEST(Linter, SuiteWorkloadsHaveNoErrorFindings)
{
    // The evaluation suite goes through the pipeline without a single
    // rollback (the safety-net tests assert that), so a lint error on
    // any of its kernels would be a false positive.
    for (const SuiteLoop &loop : testSuite()) {
        Program program = loadSuiteProgram(loop);
        LintResult result = lintProgram(program, alpha(), {});
        EXPECT_EQ(result.errorCount(), 0u)
            << loop.name << ":\n" << renderText(result);
    }
}

// --- renderers ------------------------------------------------------

TEST(LintRender, SourceExcerptCaretIsUtf8Aware)
{
    // Byte column 11 on a line whose first 10 bytes hold 7 code
    // points ("-- \xC3\xA9\xC3\xA8\xC3\xAA " = dash dash space
    // e-acute e-grave e-circumflex space): the caret must sit 7
    // columns in, not 10.
    std::string source = "-- \xC3\xA9\xC3\xA8\xC3\xAA x = 1\n";
    std::string excerpt = sourceExcerpt(source, SourceLoc{1, 11});
    EXPECT_EQ(excerpt,
              "  -- \xC3\xA9\xC3\xA8\xC3\xAA x = 1\n  "
              "       ^\n");

    // ASCII positions are unaffected.
    EXPECT_EQ(sourceExcerpt("abc\ndef\n", SourceLoc{2, 2}),
              "  def\n   ^\n");
    // Unknown locations and out-of-range lines render nothing.
    EXPECT_EQ(sourceExcerpt("abc\n", SourceLoc{}), "");
    EXPECT_EQ(sourceExcerpt("abc\n", SourceLoc{7, 1}), "");
}

TEST(LintRender, TextMatchesGolden)
{
    std::string source = readFile(kGoldenDir + "/golden.uj");
    LintResult result = lintSource(source, "golden.uj");
    std::string text = renderText(result, source);
    std::string golden = readFile(kGoldenDir + "/lint_text.golden");
    if (std::getenv("UJAM_UPDATE_GOLDEN")) {
        std::ofstream(kGoldenDir + "/lint_text.golden") << text;
        GTEST_SKIP() << "golden updated";
    }
    EXPECT_EQ(text, golden);
}

TEST(LintRender, SarifMatchesGolden)
{
    std::string source = readFile(kGoldenDir + "/golden.uj");
    LintResult result = lintSource(source, "golden.uj");
    std::string sarif = renderSarif(result);
    std::string golden = readFile(kGoldenDir + "/lint_sarif.golden");
    if (std::getenv("UJAM_UPDATE_GOLDEN")) {
        std::ofstream(kGoldenDir + "/lint_sarif.golden") << sarif;
        GTEST_SKIP() << "golden updated";
    }
    EXPECT_EQ(sarif, golden);

    // Structural invariants beyond the byte-for-byte match.
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
    for (const auto &rule : lintRules())
        EXPECT_NE(sarif.find(std::string("\"id\": \"") + rule->id() +
                             "\""),
                  std::string::npos);
}

TEST(LintRender, SarifColumnsAreCodePointsAndSpanTheToken)
{
    // The finding sits on "alpha" at byte column 5; the region must
    // cover exactly that identifier in code-point columns.
    LintResult result;
    result.sourceName = "cols.uj";
    LintDiagnostic diag;
    diag.ruleId = "UJ001";
    diag.severity = LintSeverity::Error;
    diag.loc = SourceLoc{1, 5};
    diag.message = "m";
    result.diagnostics.push_back(diag);

    std::string sarif = renderSarif(result, "do  alpha = 1\n");
    EXPECT_NE(sarif.find("\"startColumn\": 5"), std::string::npos);
    EXPECT_NE(sarif.find("\"endColumn\": 10"), std::string::npos);

    // Without source text the lexer's byte column is all we have:
    // keep startColumn, omit endColumn rather than fabricate one.
    std::string blind = renderSarif(result);
    EXPECT_NE(blind.find("\"startColumn\": 5"), std::string::npos);
    EXPECT_EQ(blind.find("\"endColumn\""), std::string::npos);
}

TEST(LintRender, SarifEndColumnIsUtf8Aware)
{
    // "-- \xC3\xA9\xC3\xA8\xC3\xAA x = 1": byte column 11 is the
    // identifier "x", but only 7 code points precede it. Both column
    // fields must count code points (SARIF's unit), matching the
    // caret renderer.
    LintResult result;
    result.sourceName = "utf8.uj";
    LintDiagnostic diag;
    diag.ruleId = "UJ002";
    diag.severity = LintSeverity::Note;
    diag.loc = SourceLoc{1, 11};
    diag.message = "m";
    result.diagnostics.push_back(diag);

    std::string sarif =
        renderSarif(result, "-- \xC3\xA9\xC3\xA8\xC3\xAA x = 1\n");
    EXPECT_NE(sarif.find("\"startColumn\": 8"), std::string::npos);
    EXPECT_NE(sarif.find("\"endColumn\": 9"), std::string::npos);
}

TEST(LintRender, SarifEmitsFixReplacements)
{
    // A finding carrying a LintFix renders as a SARIF fix: the
    // deleted region covers the original text on the finding's line,
    // and insertedContent carries the replacement.
    LintResult result;
    result.sourceName = "fix.uj";
    LintDiagnostic diag;
    diag.ruleId = "UJ016";
    diag.severity = LintSeverity::Warn;
    diag.loc = SourceLoc{1, 4};
    diag.message = "loop 'i' provably runs zero iterations";
    diag.fix = LintFix{"swap the inverted constant bounds", "8, 1",
                       "1, 8"};
    result.diagnostics.push_back(diag);

    std::string source = "do i = 8, 1\nend do\n";
    std::string sarif = renderSarif(result, source);
    EXPECT_NE(sarif.find("\"fixes\""), std::string::npos);
    EXPECT_NE(sarif.find("\"artifactChanges\""), std::string::npos);
    EXPECT_NE(sarif.find("\"deletedRegion\""), std::string::npos);
    EXPECT_NE(sarif.find("\"insertedContent\""), std::string::npos);
    EXPECT_NE(sarif.find("1, 8"), std::string::npos);
    // "8, 1" starts at code-point column 8 and is 4 columns wide.
    EXPECT_NE(sarif.find("\"startColumn\": 8"), std::string::npos);
    EXPECT_NE(sarif.find("\"endColumn\": 12"), std::string::npos);

    // When the original text is not on the line (stale fix), the fix
    // is dropped rather than mis-anchored; the result stays valid.
    std::string stale = renderSarif(result, "do i = 1, n\nend do\n");
    EXPECT_EQ(stale.find("\"fixes\""), std::string::npos);
    // And with no source at all there is nothing to anchor to.
    EXPECT_EQ(renderSarif(result).find("\"fixes\""), std::string::npos);
}

TEST(LintRender, JsonEscapesAndCounts)
{
    LintResult result;
    result.sourceName = "we\"ird\\name.uj";
    LintDiagnostic diag;
    diag.ruleId = "UJ001";
    diag.severity = LintSeverity::Error;
    diag.message = "line1\nline2\t\"quoted\"";
    result.diagnostics.push_back(diag);

    std::string json = lintResultJson(result);
    EXPECT_NE(json.find("we\\\"ird\\\\name.uj"), std::string::npos);
    EXPECT_NE(json.find("line1\\nline2\\t\\\"quoted\\\""),
              std::string::npos);
    EXPECT_NE(json.find("\"errors\": 1"), std::string::npos);
    // The service's schema: counts before the findings.
    EXPECT_EQ(json.rfind("{\"lint\": {", 0), 0u);
    EXPECT_LT(json.find("\"errors\""), json.find("\"diagnostics\""));
    EXPECT_NE(json.find("\"nest_index\": 0"), std::string::npos);
    // Unknown location: no line/col keys at all.
    EXPECT_EQ(json.find("\"line\""), std::string::npos);
}

// --- SARIF smoke over the workload corpora --------------------------

TEST(LintCorpus, SarifOverSuiteAndCorpusKeepsItsInvariants)
{
    std::vector<LintResult> results;

    // Suite workloads come from real DSL text: every finding must
    // carry a resolvable location (its line exists in the source and
    // the caret renderer accepts it).
    for (const SuiteLoop &loop : testSuite()) {
        Program program = parseProgram(loop.source, "suite:" + loop.name);
        LintResult result = lintProgram(program, alpha(), {});
        for (const LintDiagnostic &diag : result.diagnostics) {
            EXPECT_TRUE(diag.loc.known())
                << loop.name << ": " << diag.toString(result.sourceName);
            EXPECT_NE(sourceExcerpt(loop.source, diag.loc), "")
                << loop.name << ": " << diag.toString(result.sourceName);
        }
        results.push_back(std::move(result));
    }

    // Corpus routines are synthesized IR (no source text); their
    // findings legitimately carry no location, and the SARIF writer
    // must omit the region rather than fabricate line 0.
    CorpusConfig config;
    config.routines = 12;
    config.seed = 20260806;
    config.threads = 1;
    for (const CorpusRoutine &routine : generateCorpus(config)) {
        Program program;
        for (const LoopNest &nest : routine.nests) {
            for (const Access &access : nest.accesses()) {
                if (program.hasArray(access.ref.array()))
                    continue;
                ArrayDecl decl;
                decl.name = access.ref.array();
                for (std::size_t d = 0; d < access.ref.dims(); ++d)
                    decl.extents.push_back(Bound::constant(300));
                program.declareArray(std::move(decl));
            }
            program.addNest(nest);
        }
        program.setSourceName("corpus:" + routine.name);
        results.push_back(lintProgram(program, alpha(), {}));
    }

    // No duplicate findings within any run.
    for (const LintResult &result : results) {
        std::set<std::string> seen;
        for (const LintDiagnostic &diag : result.diagnostics) {
            std::string key = concat(diag.ruleId, "@", diag.nestIndex,
                                     "@", diag.loc.toString(), "@",
                                     diag.message);
            EXPECT_TRUE(seen.insert(key).second)
                << result.sourceName << ": duplicate " << key;
        }
    }

    std::string sarif = renderSarifRuns(results);
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_EQ(sarif.find("\"startLine\": 0"), std::string::npos);

    // Every reported ruleId is in the declared catalog.
    std::set<std::string> catalog;
    for (const auto &rule : lintRules())
        catalog.insert(rule->id());
    for (const LintResult &result : results) {
        for (const LintDiagnostic &diag : result.diagnostics)
            EXPECT_TRUE(catalog.count(diag.ruleId)) << diag.ruleId;
    }
}

// --- pipeline integration -------------------------------------------

const char *kHazardSource =
    "param n = 8\n"
    "real a(n, n)\n"
    "real b(n, n)\n"
    "real c(n, n)\n"
    "! nest: prehdr\n"
    "do i = 1, n\n"
    "  do j = 1, n\n"
    "    pre t = a(i, 1)\n"
    "    a(i, j) = a(i, j) + t\n"
    "  end do\n"
    "end do\n"
    "! nest: reach\n"
    "do i = 1, n\n"
    "  do j = 1, n\n"
    "    b(i, j) = a(i + 20, j)\n"
    "  end do\n"
    "end do\n"
    "! nest: carried\n"
    "do i = 1, n\n"
    "  do j = 1, n\n"
    "    b(i, j) = a(i, j) + a(i, j - 1) + s\n"
    "    s = a(i, j) * 0.5\n"
    "  end do\n"
    "end do\n"
    "! nest: clean\n"
    "do i = 1, n\n"
    "  do j = 1, n\n"
    "    c(i, j) = a(i, j) + a(i, j - 1)\n"
    "  end do\n"
    "end do\n";

PipelineConfig
oracleConfig(LintMode lint)
{
    PipelineConfig config;
    config.safety.oracle = true;
    // Cap the unroll so the jammed main loop actually executes at
    // n = 8 (at the default cap of 8 the 9-copy body needs 9 trips
    // and align() leaves everything to the un-jammed fringe nest,
    // which would make the carried-scalar hazard unobservable).
    config.optimizer.maxUnroll = 4;
    config.lint = lint;
    return config;
}

TEST(LintPipeline, WarnModeReportsWithoutSkipping)
{
    Program program = parseProgram(kHazardSource, "hazards.uj");
    PipelineResult result =
        optimizeProgram(program, alpha(), oracleConfig(LintMode::Warn));
    EXPECT_GE(result.lint.errorCount(), 3u);
    for (const NestOutcome &outcome : result.outcomes)
        EXPECT_FALSE(outcome.lintSkipped);
    // Warn mode leaves the hazards in: the safety net must do the
    // containing.
    EXPECT_GT(result.containedFaults(), 0u);
    EXPECT_NE(result.summary().find("lint:"), std::string::npos);
}

TEST(LintPipeline, StrictModeSkipsFlaggedNestsAndAvoidsAllRollbacks)
{
    Program program = parseProgram(kHazardSource, "hazards.uj");

    // Without lint, the hazard nests are only saved by the safety
    // net: the run must contain at least one fault.
    PipelineResult unchecked =
        optimizeProgram(program, alpha(), oracleConfig(LintMode::Off));
    EXPECT_GT(unchecked.containedFaults(), 0u);

    // Every rolled-back nest must have been statically flagged at
    // error severity -- the analyzer predicts the safety net.
    LintResult lint = lintProgram(program, alpha(), {});
    for (std::size_t n = 0; n < unchecked.outcomes.size(); ++n) {
        if (!unchecked.outcomes[n].contained.empty()) {
            EXPECT_TRUE(lint.nestHasErrors(n))
                << "nest " << n << " rolled back without a lint error";
        }
    }

    // Strict mode: flagged nests are skipped before any stage runs,
    // so nothing is ever rolled back, and the clean nest still gets
    // its transformation.
    PipelineResult strict =
        optimizeProgram(program, alpha(), oracleConfig(LintMode::Strict));
    EXPECT_EQ(strict.containedFaults(), 0u)
        << safetyReport(strict);
    EXPECT_TRUE(strict.outcomes[0].lintSkipped);
    EXPECT_TRUE(strict.outcomes[1].lintSkipped);
    EXPECT_TRUE(strict.outcomes[2].lintSkipped);
    EXPECT_FALSE(strict.outcomes[3].lintSkipped);
    EXPECT_TRUE(strict.outcomes[3].decision.transforms());
    EXPECT_NE(safetyReport(strict).find("skipped by strict lint"),
              std::string::npos);

    // The crafted carried-scalar nest is only interesting if the
    // optimizer actually unrolls it when unchecked; guard the guard.
    EXPECT_FALSE(unchecked.outcomes[2].contained.empty())
        << "nest 'carried' no longer rolls back; strengthen the kernel";
}

/**
 * The acceptance contract on the generated corpus: run a slice of
 * Table 1 routines through the oracle-checked pipeline, and require
 * that every nest the safety net rolled back was flagged at error
 * severity by the purely static analyzer -- no interpreter runs, no
 * transforms, just the rules. Strict mode must then be rollback-free.
 */
TEST(LintPipeline, OracleRollbacksAreStaticallyPredictedOnTheCorpus)
{
    CorpusConfig corpus_config;
    corpus_config.routines = 15;
    corpus_config.seed = 20260806;
    corpus_config.threads = 1;
    std::vector<CorpusRoutine> corpus = generateCorpus(corpus_config);

    std::size_t exercised = 0;
    for (const CorpusRoutine &routine : corpus) {
        for (const LoopNest &nest : routine.nests) {
            // Shrink bounds and synthesize conforming declarations so
            // the oracle's interpreter runs stay cheap (the same
            // reduction the safety-net fuzz tests apply).
            LoopNest small = nest;
            for (std::size_t k = 0; k < small.depth(); ++k) {
                if (small.loop(k).upper.evaluate({}) > 10)
                    small.loop(k).upper = Bound::constant(10);
            }
            Program program;
            bool ranks_consistent = true;
            for (const Access &access : small.accesses()) {
                if (program.hasArray(access.ref.array())) {
                    if (program.array(access.ref.array())
                            .extents.size() != access.ref.dims()) {
                        ranks_consistent = false;
                    }
                    continue;
                }
                ArrayDecl decl;
                decl.name = access.ref.array();
                for (std::size_t d = 0; d < access.ref.dims(); ++d)
                    decl.extents.push_back(Bound::constant(16));
                program.declareArray(std::move(decl));
            }
            if (!ranks_consistent)
                continue;
            program.addNest(small);
            if (!validateProgramStrict(program).empty())
                continue;
            ++exercised;

            PipelineResult result = optimizeProgram(
                program, alpha(), oracleConfig(LintMode::Off));
            if (result.containedFaults() == 0)
                continue;

            LintResult lint = lintProgram(program, alpha(), {});
            EXPECT_TRUE(lint.nestHasErrors(0))
                << routine.name << ": rolled back but not flagged:\n"
                << safetyReport(result);

            PipelineResult strict = optimizeProgram(
                program, alpha(), oracleConfig(LintMode::Strict));
            EXPECT_EQ(strict.containedFaults(), 0u)
                << routine.name << ":\n" << safetyReport(strict);
        }
    }
    EXPECT_GT(exercised, 10u);
}

} // namespace
