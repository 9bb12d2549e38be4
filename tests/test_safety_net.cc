/**
 * @file
 * Tests for the transformation safety net: fault-spec parsing, the
 * strict IR validator, the differential oracle, and the driver's
 * per-nest fault containment, including the acceptance criteria from
 * the safety-net design: a fault injected into any stage is
 * contained, the affected nest rolls back byte-identically to its
 * pre-stage IR, the remaining nests are optimized exactly as in a
 * fault-free run, and the outcome log records what happened -- at
 * every thread width.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "deps/analyzer.hh"
#include "driver/driver.hh"
#include "driver/oracle.hh"
#include "ir/interp.hh"
#include "ir/printer.hh"
#include "ir/validate.hh"
#include "parser/parser.hh"
#include "report/report.hh"
#include "support/diagnostics.hh"
#include "support/fault_injection.hh"
#include "transform/distribution.hh"
#include "transform/scalar_replacement.hh"
#include "transform/unroll_and_jam.hh"
#include "workloads/corpus.hh"
#include "workloads/suite.hh"

namespace ujam
{
namespace
{

// --- fault-spec grammar ---------------------------------------------

TEST(FaultSpecs, ParsesTheGrammar)
{
    std::vector<FaultSpec> specs =
        parseFaultSpecs("unroll:1:throw, fuse:*:panic,"
                        "scalar-replace:0:validator");
    ASSERT_EQ(specs.size(), 3u);
    EXPECT_EQ(specs[0].stage, "unroll");
    ASSERT_TRUE(specs[0].nest.has_value());
    EXPECT_EQ(*specs[0].nest, 1u);
    EXPECT_EQ(specs[0].kind, FaultKind::Throw);
    EXPECT_FALSE(specs[1].nest.has_value()); // wildcard
    EXPECT_EQ(specs[1].kind, FaultKind::Panic);
    EXPECT_EQ(specs[2].kind, FaultKind::Validator);

    EXPECT_EQ(specs[0].toString(), "unroll:1:throw");
    EXPECT_EQ(specs[1].toString(), "fuse:*:panic");
}

TEST(FaultSpecs, RejectsMalformedSpecs)
{
    EXPECT_THROW(parseFaultSpecs("bogus:0:throw"), FatalError);
    EXPECT_THROW(parseFaultSpecs("unroll:0:frobnicate"), FatalError);
    EXPECT_THROW(parseFaultSpecs("unroll:x:throw"), FatalError);
    EXPECT_THROW(parseFaultSpecs("unroll:0"), FatalError);
    EXPECT_THROW(parseFaultSpecs("unroll:0:throw:extra"), FatalError);
}

TEST(FaultSpecs, MatchingHonorsWildcardAndOrder)
{
    std::vector<FaultSpec> specs =
        parseFaultSpecs("unroll:*:throw,unroll:0:panic,prefetch:2:oracle");
    EXPECT_EQ(requestedFault(specs, "unroll", 0), FaultKind::Throw);
    EXPECT_EQ(requestedFault(specs, "unroll", 7), FaultKind::Throw);
    EXPECT_EQ(requestedFault(specs, "prefetch", 2), FaultKind::Oracle);
    EXPECT_EQ(requestedFault(specs, "prefetch", 1), std::nullopt);
    EXPECT_EQ(requestedFault(specs, "normalize", 0), std::nullopt);
}

// --- strict validator -----------------------------------------------

TEST(StrictValidator, AcceptsEverySuiteKernel)
{
    for (const SuiteLoop &loop : testSuite()) {
        Program program = loadSuiteProgram(loop);
        std::vector<std::string> problems =
            validateProgramStrict(program);
        EXPECT_TRUE(problems.empty())
            << loop.name << ": " << problems.front();
    }
}

TEST(StrictValidator, FlagsStepsAfterNormalization)
{
    LoopNest nest = parseSingleNest(R"(
do i = 1, 8, 2
  x = 1
end do
)");
    Program program;
    program.addNest(nest);
    ValidateOptions relaxed;
    EXPECT_TRUE(validateNestStrict(program, nest, relaxed).empty());
    ValidateOptions strict;
    strict.requireStepOne = true;
    std::vector<std::string> problems =
        validateNestStrict(program, nest, strict);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems.front().find("step"), std::string::npos);
}

TEST(StrictValidator, FlagsIvUsedInABound)
{
    LoopNest nest = parseSingleNest(R"(
do j = 1, 8
  do i = 1, j
    x = 1
  end do
end do
)");
    Program program;
    program.addNest(nest);
    std::vector<std::string> problems =
        validateNestStrict(program, nest, {});
    ASSERT_FALSE(problems.empty());
    bool flagged = false;
    for (const std::string &problem : problems)
        flagged |= problem.find("induction variable") != std::string::npos;
    EXPECT_TRUE(flagged) << problems.front();
}

TEST(StrictValidator, FlagsScalarReadOfAnIv)
{
    // The interpreter reads scalars by name; a scalar read that names
    // an induction variable silently yields 0.0, not the counter.
    LoopNest nest = parseSingleNest(R"(
do i = 1, 8
  x = i
end do
)");
    Program program;
    program.addNest(nest);
    std::vector<std::string> problems =
        validateNestStrict(program, nest, {});
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems.front().find("induction variable"),
              std::string::npos);
}

TEST(StrictValidator, FlagsReferencesBeyondExtentPlusHalo)
{
    Program program = parseProgram(R"(
param n = 16
real a(n)
do i = 1, n
  a(i + 30) = 1
end do
)");
    std::vector<std::string> problems = validateProgramStrict(program);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems.front().find("halo"), std::string::npos);

    // The same subscript inside the halo is fine.
    Program near = parseProgram(R"(
param n = 16
real a(n)
do i = 1, n
  a(i + 4) = 1
end do
)");
    EXPECT_TRUE(validateProgramStrict(near).empty());
}

// --- differential oracle --------------------------------------------

TEST(Oracle, AcceptsAnIdentityTransformation)
{
    Program program = parseProgram(R"(
param n = 12
real a(n)
real b(n)
do i = 1, n
  a(i) = b(i) + 1.0
end do
)");
    OracleVerdict verdict = verifyEquivalence(
        program, program.nests(), program.nests(), /*bitExact=*/true);
    EXPECT_TRUE(verdict.ok) << verdict.mismatch;
}

TEST(Oracle, CatchesASemanticChange)
{
    Program program = parseProgram(R"(
param n = 12
real a(n)
real b(n)
do i = 1, n
  a(i) = b(i) + 1.0
end do
)");
    Program broken = parseProgram(R"(
param n = 12
real a(n)
real b(n)
do i = 1, n
  a(i) = b(i) + 2.0
end do
)");
    OracleVerdict verdict =
        verifyEquivalence(program, program.nests(), broken.nests(),
                          /*bitExact=*/false);
    EXPECT_FALSE(verdict.ok);
    EXPECT_FALSE(verdict.mismatch.empty());
}

TEST(Oracle, ToleranceSeparatesReorderingFromWrongness)
{
    // The same reduction accumulated in transposed order: identical
    // term multiset, different association, so the sums agree only up
    // to rounding.
    Program forward = parseProgram(R"(
param n = 16
real a(1)
real b(n, n)
do j = 1, n
  do i = 1, n
    a(1) = a(1) + b(i, j)
  end do
end do
)");
    Program backward = parseProgram(R"(
param n = 16
real a(1)
real b(n, n)
do j = 1, n
  do i = 1, n
    a(1) = a(1) + b(j, i)
  end do
end do
)");
    // Bit-exact comparison must notice the reordering...
    OracleVerdict exact = verifyPrograms(forward, backward, true);
    EXPECT_FALSE(exact.ok);
    // ...while the tolerance for reordering stages accepts it.
    OracleVerdict loose = verifyPrograms(forward, backward, false);
    EXPECT_TRUE(loose.ok) << loose.mismatch;
}

TEST(Oracle, NonFiniteElementsMatchOnlyThemselves)
{
    // An infinity on either side once made the tolerance infinite (NaN
    // at tolerance 0), and a NaN made the difference NaN: both passed
    // against any value. Every element of a is +inf, -inf or NaN here.
    auto program = [](const char *rhs) {
        return parseProgram(concat(R"(
param n = 12
real a(n)
real b(n)
real c(n)
do i = 1, n
  a(i) = )",
                                   rhs, "\nend do\n"));
    };
    Program sum = program("b(i) + c(i)");
    Program inf = program("b(i) / (c(i) - c(i))");
    Program neg_inf = program("(0.0 - b(i)) / (c(i) - c(i))");
    Program nan = program("(b(i) - b(i)) / (c(i) - c(i))");
    for (bool bit_exact : {true, false}) {
        SCOPED_TRACE(bit_exact ? "bit-exact" : "with tolerance");
        EXPECT_FALSE(verifyPrograms(sum, inf, bit_exact).ok);
        EXPECT_FALSE(verifyPrograms(sum, nan, bit_exact).ok);
        EXPECT_FALSE(verifyPrograms(inf, sum, bit_exact).ok);
        EXPECT_FALSE(verifyPrograms(nan, sum, bit_exact).ok);
        EXPECT_FALSE(verifyPrograms(inf, neg_inf, bit_exact).ok);
        EXPECT_FALSE(verifyPrograms(inf, nan, bit_exact).ok);
        // A non-finite element still matches the same value.
        EXPECT_TRUE(verifyPrograms(inf, inf, bit_exact).ok);
        EXPECT_TRUE(verifyPrograms(neg_inf, neg_inf, bit_exact).ok);
        EXPECT_TRUE(verifyPrograms(nan, nan, bit_exact).ok);
    }
    OracleVerdict verdict = verifyPrograms(sum, inf, false);
    EXPECT_NE(verdict.mismatch.find("vs inf"), std::string::npos)
        << verdict.mismatch;
}

TEST(Oracle, StructuralNestEqualityIsExact)
{
    // The pipeline skips the candidate run of a stage whose output nest
    // list == its input, so == must imply identical interpretation.
    // Source locations do not change what a nest computes: layouts
    // that move every statement and reference still compare equal.
    Program tight = parseProgram(R"(
param n = 12
real a(n)
real b(n)
do i = 1, n
  a(i) = 1.0 / (b(i) * 0.0)
end do
)");
    Program spread = parseProgram(R"(
param n = 12
real a(n)


real b(n)
do   i = 1,   n
      a(i)   =   1.0 / (b(i)    * 0.0)
end do
)");
    const LoopNest &nest = tight.nests()[0];
    ASSERT_NE(nest.body()[0].loc(), spread.nests()[0].body()[0].loc());
    EXPECT_TRUE(nest == spread.nests()[0]);
    EXPECT_TRUE(tight.nests() == spread.nests());

    // -0.0 and 0.0 compare equal as doubles (and print alike as DSL
    // text), but 1 / (b * -0.0) is -inf where 1 / (b * 0.0) is +inf.
    LoopNest negative = nest;
    const Expr &quotient = *nest.body()[0].rhs();
    negative.body()[0].setRhs(Expr::binary(
        BinOp::Div, quotient.lhs(),
        Expr::binary(BinOp::Mul, quotient.rhs()->lhs(),
                     Expr::constant(-0.0))));
    EXPECT_FALSE(nest == negative);
    OracleVerdict verdict =
        verifyEquivalence(tight, {nest}, {negative}, /*bitExact=*/true);
    EXPECT_FALSE(verdict.ok);

    // Every other field takes part: a changed step, bound, name or
    // statement list makes the nests differ.
    LoopNest stepped = nest;
    stepped.loop(0).step = 2;
    EXPECT_FALSE(nest == stepped);
    LoopNest bounded = nest;
    bounded.loop(0).upper = Bound::constant(11);
    EXPECT_FALSE(nest == bounded);
    LoopNest renamed = nest;
    renamed.setName("other");
    EXPECT_FALSE(nest == renamed);
    LoopNest headed = nest;
    headed.preheader().push_back(Stmt::assignScalar("t", Expr::constant(1)));
    EXPECT_FALSE(nest == headed);
}

TEST(Oracle, VerdictIsThreadAndCallerIndependent)
{
    Program program = parseProgram(R"(
param n = 12
real a(n)
do i = 1, n
  a(i) = a(i) * 2.0
end do
)");
    OracleConfig config;
    config.trials = 3;
    OracleVerdict a = verifyEquivalence(program, program.nests(),
                                        program.nests(), true, config, 5);
    OracleVerdict b = verifyEquivalence(program, program.nests(),
                                        program.nests(), true, config, 5);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.mismatch, b.mismatch);
}

// --- containment ----------------------------------------------------

/**
 * Three independent named nests; enough structure for every stage.
 * The bounds differ on purpose so fusion never merges them and the
 * outcome indices stay stable.
 */
Program
triProgram()
{
    return parseProgram(R"(
param n = 16
param m = 12
real a(n + 2, n + 2)
real b(n + 2, n + 2)
real c(m + 2, m + 2)
real d(n)
! nest: alpha
do j = 1, n
  do i = 1, n
    a(i, j) = b(i, j) + b(i, j + 1) + b(i + 1, j)
  end do
end do
! nest: beta
do j = 1, m
  do i = 1, m
    c(i, j) = c(i, j) * 0.5 + 1.0
  end do
end do
! nest: gamma
do k = 1, n, 2
  d(k) = d(k) + 1.0
end do
)");
}

PipelineConfig
allStagesConfig()
{
    PipelineConfig config;
    config.fuse = true;
    config.normalize = true;
    config.distribute = true;
    config.interchange = true;
    config.prefetch = true;
    config.optimizer.maxUnroll = 3;
    config.threads = 1;
    return config;
}

const char *kPerNestStages[] = {"normalize", "distribute", "interchange",
                                "unroll", "scalar-replace", "prefetch"};

TEST(Containment, EveryStageFaultedRollsBackToTheInput)
{
    Program program = triProgram();
    PipelineConfig config = allStagesConfig();
    config.safety.faults = parseFaultSpecs(
        "fuse:*:throw,normalize:*:throw,distribute:*:throw,"
        "interchange:*:throw,unroll:*:throw,scalar-replace:*:throw,"
        "prefetch:*:throw");

    PipelineResult result =
        optimizeProgram(program, MachineModel::hpPa7100(), config);

    // With every stage refused, the output is byte-identical input.
    EXPECT_EQ(renderProgram(result.program), renderProgram(program));
    ASSERT_EQ(result.programDiagnostics.size(), 1u);
    EXPECT_EQ(result.programDiagnostics[0].stage, Stage::Fuse);
    ASSERT_EQ(result.outcomes.size(), 3u);
    for (const NestOutcome &outcome : result.outcomes) {
        EXPECT_EQ(outcome.contained.size(), 6u) << outcome.name;
        for (const StageDiagnostic &diag : outcome.contained) {
            EXPECT_EQ(diag.kind, StageDiagnostic::Kind::Fatal);
            EXPECT_NE(diag.message.find("injected"), std::string::npos);
        }
    }
    EXPECT_EQ(result.containedFaults(), 19u);
}

/** Every stage that has a disable flag, and how to disable it. */
struct DisableCase
{
    const char *stage;
    void (*disable)(PipelineConfig &);
};
const DisableCase kDisableCases[] = {
    {"fuse", [](PipelineConfig &c) { c.fuse = false; }},
    {"normalize", [](PipelineConfig &c) { c.normalize = false; }},
    {"distribute", [](PipelineConfig &c) { c.distribute = false; }},
    {"interchange", [](PipelineConfig &c) { c.interchange = false; }},
    {"scalar-replace", [](PipelineConfig &c) { c.scalarReplace = false; }},
    {"prefetch", [](PipelineConfig &c) { c.prefetch = false; }},
};

TEST(Containment, FaultedStageEqualsStageDisabled)
{
    // A throw fires at stage entry, so a contained stage must leave
    // exactly the same program as running with that stage disabled.
    Program program = triProgram();
    const MachineModel machine = MachineModel::hpPa7100();

    for (const DisableCase &c : kDisableCases) {
        PipelineConfig faulted = allStagesConfig();
        faulted.safety.faults =
            parseFaultSpecs(concat(c.stage, ":*:throw"));
        PipelineResult with_fault =
            optimizeProgram(program, machine, faulted);

        PipelineConfig disabled = allStagesConfig();
        c.disable(disabled);
        PipelineResult without_stage =
            optimizeProgram(program, machine, disabled);

        EXPECT_EQ(renderProgram(with_fault.program),
                  renderProgram(without_stage.program))
            << c.stage;
        EXPECT_GT(with_fault.containedFaults(), 0u) << c.stage;
        EXPECT_EQ(without_stage.containedFaults(), 0u) << c.stage;
    }
}

TEST(Containment, OracleFaultedStageEqualsStageDisabled)
{
    // The oracle fault corrupts a stage's output semantically, so the
    // oracle rejects it and the nest keeps its pre-stage state -- and
    // the oracle's kept runs of that state. The next stage must check
    // against those runs: had it kept the rejected candidate's, every
    // later stage would mismatch and roll back too. So only the
    // faulted stage is contained, and the program equals the one with
    // that stage disabled, at one and at two trials.
    Program program = triProgram();
    const MachineModel machine = MachineModel::hpPa7100();

    for (std::size_t trials : {1u, 2u}) {
        for (const DisableCase &c : kDisableCases) {
            SCOPED_TRACE(concat(c.stage, ", ", trials, " trial(s)"));
            PipelineConfig faulted = allStagesConfig();
            faulted.safety.oracle = true;
            faulted.safety.oracleTrials = trials;
            faulted.safety.faults =
                parseFaultSpecs(concat(c.stage, ":*:oracle"));
            PipelineResult with_fault =
                optimizeProgram(program, machine, faulted);

            PipelineConfig disabled = allStagesConfig();
            disabled.safety.oracle = true;
            disabled.safety.oracleTrials = trials;
            c.disable(disabled);
            PipelineResult without_stage =
                optimizeProgram(program, machine, disabled);

            EXPECT_EQ(renderProgram(with_fault.program),
                      renderProgram(without_stage.program));
            EXPECT_GT(with_fault.containedFaults(), 0u);
            EXPECT_EQ(without_stage.containedFaults(), 0u);
            std::vector<StageDiagnostic> diags =
                with_fault.programDiagnostics;
            for (const NestOutcome &outcome : with_fault.outcomes)
                diags.insert(diags.end(), outcome.contained.begin(),
                             outcome.contained.end());
            for (const StageDiagnostic &diag : diags) {
                EXPECT_EQ(stageName(diag.stage), std::string(c.stage));
                EXPECT_EQ(diag.kind, StageDiagnostic::Kind::Oracle);
            }
        }
    }
}

TEST(Containment, UninterpretableReferenceRollsBackEveryStage)
{
    // 8216 x 8216 elements with the halo: past the interpreter's 2^26
    // cap, so the nest's reference state cannot be interpreted. The
    // guard keeps that failure, and every stage rolls back with the
    // message verifyEquivalence gives for it.
    Program program = parseProgram(R"(
param n = 8200
real a(n, n)
real b(n, n)
do j = 1, n
  do i = 1, n
    a(i, j) = b(i, j) + b(i + 1, j)
  end do
end do
)",
                                   "huge");
    PipelineConfig config;
    config.safety.oracle = true;
    config.threads = 1;
    PipelineResult result =
        optimizeProgram(program, MachineModel::decAlpha21064(), config);

    OracleConfig oracle;
    OracleVerdict expected = verifyEquivalence(
        program, program.nests(), program.nests(), true, oracle, 0);
    ASSERT_FALSE(expected.ok);
    EXPECT_NE(expected.mismatch.find("execution failed"),
              std::string::npos);
    EXPECT_NE(expected.mismatch.find("caps arrays"), std::string::npos);

    EXPECT_EQ(renderProgram(result.program), renderProgram(program));
    ASSERT_EQ(result.outcomes.size(), 1u);
    const std::vector<StageDiagnostic> &contained =
        result.outcomes[0].contained;
    ASSERT_EQ(contained.size(), 3u);
    const Stage stages[] = {Stage::Normalize, Stage::Unroll,
                            Stage::ScalarReplace};
    for (std::size_t s = 0; s < contained.size(); ++s) {
        EXPECT_EQ(contained[s].stage, stages[s]);
        EXPECT_EQ(contained[s].kind, StageDiagnostic::Kind::Oracle);
        EXPECT_EQ(contained[s].message, expected.mismatch);
    }
}

TEST(Containment, UnchangedStageStillMeetsTheOracleFault)
{
    // Normalize leaves an unstepped nest as it is, so its candidate run
    // is skipped -- but the corruption FaultKind::Oracle injects makes
    // the output differ, and the oracle must still reject it.
    Program program = parseProgram(R"(
param n = 12
real a(n)
real b(n)
do i = 1, n
  a(i) = b(i) * 2.0
end do
)");
    PipelineConfig config;
    config.safety.oracle = true;
    config.threads = 1;
    const MachineModel machine = MachineModel::decAlpha21064();
    PipelineResult clean = optimizeProgram(program, machine, config);
    EXPECT_EQ(clean.containedFaults(), 0u);
    EXPECT_FALSE(clean.outcomes[0].normalized);

    config.safety.faults = parseFaultSpecs("normalize:*:oracle");
    PipelineResult faulted = optimizeProgram(program, machine, config);
    ASSERT_EQ(faulted.outcomes.size(), 1u);
    ASSERT_EQ(faulted.outcomes[0].contained.size(), 1u);
    EXPECT_EQ(faulted.outcomes[0].contained[0].stage, Stage::Normalize);
    EXPECT_EQ(faulted.outcomes[0].contained[0].kind,
              StageDiagnostic::Kind::Oracle);
    EXPECT_EQ(renderProgram(faulted.program), renderProgram(clean.program));
}

TEST(Containment, UnrollFaultRollsBackByteIdentically)
{
    // Unroll-and-jam has no disable flag; with every other stage off,
    // containing it must reproduce the input program exactly.
    Program program = triProgram();
    PipelineConfig config;
    config.normalize = false;
    config.scalarReplace = false;
    config.threads = 1;
    config.safety.faults = parseFaultSpecs("unroll:*:throw");
    PipelineResult result =
        optimizeProgram(program, MachineModel::hpPa7100(), config);
    EXPECT_EQ(renderProgram(result.program), renderProgram(program));
    for (const NestOutcome &outcome : result.outcomes) {
        ASSERT_EQ(outcome.contained.size(), 1u);
        EXPECT_EQ(outcome.contained[0].stage, Stage::Unroll);
    }
}

TEST(Containment, PanicsAreContainedAsPanic)
{
    Program program = triProgram();
    PipelineConfig config = allStagesConfig();
    config.safety.faults = parseFaultSpecs("unroll:1:panic");
    PipelineResult result =
        optimizeProgram(program, MachineModel::hpPa7100(), config);
    ASSERT_EQ(result.outcomes[1].contained.size(), 1u);
    EXPECT_EQ(result.outcomes[1].contained[0].kind,
              StageDiagnostic::Kind::Panic);
    EXPECT_TRUE(result.outcomes[0].contained.empty());
    EXPECT_TRUE(result.outcomes[2].contained.empty());
}

TEST(Containment, ValidatorCatchesInjectedCorruption)
{
    // The validator fault corrupts the stage output structurally; the
    // *real* validator must notice and the *real* rollback must run,
    // leaving the same program as a stage that never ran.
    Program program = triProgram();
    const MachineModel machine = MachineModel::hpPa7100();

    PipelineConfig faulted = allStagesConfig();
    faulted.safety.faults = parseFaultSpecs("scalar-replace:*:validator");
    PipelineResult with_fault = optimizeProgram(program, machine, faulted);

    PipelineConfig disabled = allStagesConfig();
    disabled.scalarReplace = false;
    PipelineResult without_stage =
        optimizeProgram(program, machine, disabled);

    EXPECT_EQ(renderProgram(with_fault.program),
              renderProgram(without_stage.program));
    for (const NestOutcome &outcome : with_fault.outcomes) {
        ASSERT_EQ(outcome.contained.size(), 1u) << outcome.name;
        EXPECT_EQ(outcome.contained[0].kind,
                  StageDiagnostic::Kind::Validator);
    }

    // With the validator off, the corruption escapes containment --
    // proof the detection (not the injection) does the work.
    PipelineConfig unchecked = allStagesConfig();
    unchecked.safety.faults = faulted.safety.faults;
    unchecked.safety.validate = false;
    PipelineResult escaped = optimizeProgram(program, machine, unchecked);
    EXPECT_EQ(escaped.containedFaults(), 0u);
    EXPECT_NE(renderProgram(escaped.program),
              renderProgram(without_stage.program));
}

TEST(Containment, OracleCatchesWhatTheValidatorCannot)
{
    // The oracle fault perturbs semantics but keeps the IR
    // structurally valid: only differential execution can see it.
    Program program = triProgram();
    const MachineModel machine = MachineModel::hpPa7100();

    PipelineConfig with_oracle = allStagesConfig();
    with_oracle.safety.oracle = true;
    with_oracle.safety.faults = parseFaultSpecs("unroll:0:oracle");
    PipelineResult caught = optimizeProgram(program, machine, with_oracle);
    ASSERT_EQ(caught.outcomes[0].contained.size(), 1u);
    EXPECT_EQ(caught.outcomes[0].contained[0].kind,
              StageDiagnostic::Kind::Oracle);

    // Validator alone (the default) cannot catch it: the run reports
    // nothing contained and the output really is semantically wrong.
    PipelineConfig without_oracle = allStagesConfig();
    without_oracle.safety.faults = with_oracle.safety.faults;
    PipelineResult escaped =
        optimizeProgram(program, machine, without_oracle);
    EXPECT_EQ(escaped.containedFaults(), 0u);
    PipelineResult clean = optimizeProgram(program, machine,
                                           allStagesConfig());
    OracleVerdict verdict =
        verifyPrograms(clean.program, escaped.program, false);
    EXPECT_FALSE(verdict.ok);
}

TEST(Containment, EachStageInTurnLeavesOtherNestsUntouched)
{
    // The acceptance criterion: inject a failure into each per-nest
    // stage in turn; the pipeline completes, the outcome names the
    // stage, and the remaining nests come out identical to the
    // fault-free run.
    Program program = triProgram();
    const MachineModel machine = MachineModel::hpPa7100();
    PipelineResult reference =
        optimizeProgram(program, machine, allStagesConfig());
    ASSERT_EQ(reference.containedFaults(), 0u);

    auto segment = [](const PipelineResult &result,
                      const std::string &nest_name) {
        std::string rendered;
        for (const LoopNest &nest : result.program.nests()) {
            if (nest.name().rfind(nest_name, 0) == 0)
                rendered += renderLoopNest(nest);
        }
        return rendered;
    };

    for (const char *stage : kPerNestStages) {
        PipelineConfig config = allStagesConfig();
        config.safety.faults =
            parseFaultSpecs(concat(stage, ":1:throw"));
        PipelineResult result =
            optimizeProgram(program, machine, config);

        ASSERT_EQ(result.outcomes.size(), 3u) << stage;
        ASSERT_EQ(result.outcomes[1].contained.size(), 1u) << stage;
        EXPECT_EQ(stageName(result.outcomes[1].contained[0].stage),
                  std::string(stage));
        EXPECT_TRUE(result.outcomes[0].contained.empty()) << stage;
        EXPECT_TRUE(result.outcomes[2].contained.empty()) << stage;

        // Nests 0 and 2 match the fault-free run byte for byte.
        EXPECT_EQ(segment(result, "alpha"), segment(reference, "alpha"))
            << stage;
        EXPECT_EQ(segment(result, "gamma"), segment(reference, "gamma"))
            << stage;
        // The faulted nest still computes what the original computed.
        EXPECT_TRUE(validateProgramStrict(result.program).empty())
            << stage;
        OracleVerdict verdict =
            verifyPrograms(program, result.program, false);
        EXPECT_TRUE(verdict.ok) << stage << ": " << verdict.mismatch;
        // The summary and safety report surface the containment.
        EXPECT_NE(result.summary().find("contained"), std::string::npos)
            << stage;
        EXPECT_NE(safetyReport(result).find(stage), std::string::npos)
            << stage;
    }
}

TEST(Containment, RollbackIsIdenticalAtEveryThreadWidth)
{
    Program program = triProgram();
    const MachineModel machine = MachineModel::hpPa7100();
    std::string rendered;
    std::string summary;
    for (std::size_t threads : {std::size_t(1), std::size_t(2),
                                std::size_t(0)}) {
        PipelineConfig config = allStagesConfig();
        config.threads = threads;
        config.safety.oracle = true;
        config.safety.faults = parseFaultSpecs(
            "interchange:0:validator,unroll:1:throw,prefetch:2:oracle");
        PipelineResult result =
            optimizeProgram(program, machine, config);
        EXPECT_EQ(result.containedFaults(), 3u) << threads;
        if (rendered.empty()) {
            rendered = renderProgram(result.program);
            summary = result.summary();
        } else {
            EXPECT_EQ(renderProgram(result.program), rendered)
                << threads;
            EXPECT_EQ(result.summary(), summary) << threads;
        }
    }
}

TEST(Containment, EnvVarInjectsFaults)
{
    Program program = triProgram();
    ::setenv("UJAM_FAULT", "unroll:0:throw", 1);
    PipelineResult result = optimizeProgram(
        program, MachineModel::hpPa7100(), allStagesConfig());
    ::unsetenv("UJAM_FAULT");
    ASSERT_EQ(result.outcomes[0].contained.size(), 1u);
    EXPECT_EQ(result.outcomes[0].contained[0].stage, Stage::Unroll);

    // A malformed env value is a user configuration error: it is
    // reported as a FatalError up front, never half-applied.
    ::setenv("UJAM_FAULT", "not-a-spec", 1);
    EXPECT_THROW(optimizeProgram(program, MachineModel::hpPa7100(),
                                 allStagesConfig()),
                 FatalError);
    ::unsetenv("UJAM_FAULT");
}

TEST(Containment, FusionRollbackPreservesBothNests)
{
    // A genuinely fusable producer-consumer pair: the fault-free run
    // fuses, the faulted run must leave both nests exactly as a
    // fusion-disabled run would.
    Program program = parseProgram(R"(
param n = 16
real a(n, n)
real b(n, n)
! nest: producer
do j = 1, n
  do i = 1, n
    a(i, j) = b(i, j) + 2.0
  end do
end do
! nest: consumer
do j = 1, n
  do i = 1, n
    b(i, j) = a(i, j) + 1.0
  end do
end do
)");
    const MachineModel machine = MachineModel::hpPa7100();
    PipelineConfig fused;
    fused.fuse = true;
    PipelineResult clean = optimizeProgram(program, machine, fused);
    ASSERT_EQ(clean.fusions, 1u); // the pair really is fusable

    PipelineConfig faulted = fused;
    faulted.safety.faults = parseFaultSpecs("fuse:*:throw");
    PipelineResult contained = optimizeProgram(program, machine, faulted);
    EXPECT_EQ(contained.fusions, 0u);
    ASSERT_EQ(contained.programDiagnostics.size(), 1u);
    EXPECT_EQ(contained.programDiagnostics[0].stage, Stage::Fuse);

    PipelineConfig unfused;
    unfused.fuse = false;
    PipelineResult reference = optimizeProgram(program, machine, unfused);
    EXPECT_EQ(renderProgram(contained.program),
              renderProgram(reference.program));
}

TEST(Containment, SafetyReportRendersACleanBill)
{
    PipelineResult result = optimizeProgram(
        triProgram(), MachineModel::hpPa7100(), allStagesConfig());
    EXPECT_EQ(result.containedFaults(), 0u);
    EXPECT_NE(safetyReport(result).find("no faults contained"),
              std::string::npos);
}

// --- legality bugs the differential oracle caught -------------------
//
// Each test below reduces a corpus routine the oracle fuzz flagged as
// miscompiled. A dependence edge with a '*' component is oriented
// textually and stands for concrete pairs in BOTH iteration orders;
// every transformation that trusted the textual orientation was
// unsound. These pin the fixes independently of the fuzz seed.

/** Parse a one-nest program and pair it with a transformed nest. */
Program
withNest(const Program &program, LoopNest nest)
{
    Program result = program;
    result.nests().clear();
    result.addNest(std::move(nest));
    return result;
}

/** Bit-exact interpreter comparison of two programs. */
std::string
interpDiff(const Program &a, const Program &b)
{
    Interpreter ia(a);
    Interpreter ib(b);
    ia.seedArrays(42);
    ib.seedArrays(42);
    ia.run();
    ib.run();
    return ia.compareArrays(ib, 0.0);
}

TEST(OracleRegression, StarCarrierBlocksUnrollAndJam)
{
    // The coupled read subscript leaves i1 unresolved ('*' at the
    // outer level) while i2 resolves exactly; the mirrored pairs
    // turn the inner '<' into '>', so jamming i1 is illegal.
    Program program = parseProgram(R"(
real a(16, 16)
do i1 = 1, 8
  do i2 = 1, 8
    a(i2, i1) = (a(i2+2, i2-1) * 0.5)
  end do
end do
)");
    const LoopNest &nest = program.nests()[0];
    DepOptions options;
    options.includeInput = false;
    DependenceGraph graph = analyzeDependences(nest, options);
    IntVector bounds = safeUnrollBounds(nest, graph, 4);
    EXPECT_EQ(bounds[0], 0) << graph.toString();
}

TEST(OracleRegression, OuterCarrierWithBackwardJamLevelBlocksFringe)
{
    // The remainder iterations of a jammed loop are hoisted into a
    // fringe nest that runs after the main nest has finished every
    // i1 iteration; a dependence carried by i1 that points backward
    // at i2 is reversed by that split (trip count 10 does not divide
    // by any jam factor + 1 evenly enough to dodge it).
    Program program = parseProgram(R"(
real a(16, 16)
do i1 = 1, 2
  do i2 = 1, 10
    do i3 = 1, 10
      a(i3, i2) = ((a(i3+2, i2+2) + a(i3+1, i2+1)) * 0.5)
    end do
  end do
end do
)");
    const LoopNest &nest = program.nests()[0];
    DepOptions options;
    options.includeInput = false;
    DependenceGraph graph = analyzeDependences(nest, options);
    IntVector bounds = safeUnrollBounds(nest, graph, 4);
    EXPECT_EQ(bounds[1], 0) << graph.toString();

    // The hazard is real: forcing the jam miscompiles.
    IntVector unroll(3);
    unroll[1] = 3;
    Program jammed = unrollAndJam(program, 0, unroll);
    EXPECT_NE(interpDiff(program, jammed), "");
}

TEST(OracleRegression, StarEdgeKeepsStatementsInOneComponent)
{
    // Textually the first statement only reads a(3) before the
    // second writes a(i1) -- an anti edge. But the write lands on
    // a(3) at i1 = 3 and feeds the reads of LATER iterations, so
    // hoisting the reader nest ahead of the writer nest is illegal:
    // the statements must stay together.
    Program program = parseProgram(R"(
real a(16)
real x(16)
real y(16)
do i1 = 1, 8
  x(i1) = (a(3) * 0.5)
  a(i1) = (y(i1) + 1.0)
end do
)");
    DistributionResult result =
        distributeNest(program.nests()[0]);
    EXPECT_FALSE(result.changed);
    ASSERT_EQ(result.nests.size(), 1u);
    EXPECT_EQ(interpDiff(program,
                         withNest(program, result.nests[0])),
              "");
}

TEST(OracleRegression, ForeignWriteBlocksScalarChain)
{
    // The two column-1 reads form a replaceable chain in their own
    // UGS, but the write belongs to a different UGS and lands on
    // column 1 whenever i1 = 1 -- in between two forwarded touches
    // of the chain. Replacement must leave the chain alone.
    Program program = parseProgram(R"(
real a(16, 16)
do i1 = 1, 8
  do i2 = 1, 8
    a(i2, i1) = ((a(i2-1, 1) + a(i2+2, 1)) * 0.5)
  end do
end do
)");
    ScalarReplacementResult result =
        scalarReplace(program.nests()[0]);
    EXPECT_EQ(interpDiff(program, withNest(program, result.nest)),
              "");
}

// --- heavy: oracle sweep over the Table 2 suite ---------------------
//
// Excluded from the "fast" ctest subset (see tests/CMakeLists.txt);
// runs in the default tier-1 suite.

/** Shrink every parameter so interpreter runs stay cheap. */
ParamBindings
shrunkParams(const Program &program)
{
    ParamBindings params;
    for (const auto &[name, value] : program.paramDefaults())
        params[name] = std::min<std::int64_t>(value, 12);
    return params;
}

TEST(OracleSweepHeavy, EverySuiteKernelEveryStageCombo)
{
    for (const SuiteLoop &loop : testSuite()) {
        Program program = loadSuiteProgram(loop);
        for (int combo = 0; combo < 16; ++combo) {
            PipelineConfig config;
            config.fuse = combo & 1;
            config.distribute = combo & 2;
            config.interchange = combo & 4;
            config.prefetch = combo & 8;
            config.optimizer.maxUnroll = 3;
            config.safety.oracle = true;
            config.safety.oracleParams = shrunkParams(program);
            PipelineResult result = optimizeProgram(
                program, MachineModel::hpPa7100(), config);
            EXPECT_EQ(result.containedFaults(), 0u)
                << loop.name << " combo " << combo << ":\n"
                << safetyReport(result);
        }
    }
}

// --- heavy: corpus-driven oracle fuzz -------------------------------
//
// Also exposed as the "fuzz-fast" ctest label: random Table 1 corpus
// routines through the full pipeline with the oracle enabled.

TEST(SafetyFuzzHeavy, CorpusRoutinesSurviveThePipeline)
{
    CorpusConfig corpus_config;
    corpus_config.routines = 40;
    corpus_config.seed = 20260806;
    corpus_config.threads = 1;
    std::vector<CorpusRoutine> corpus = generateCorpus(corpus_config);

    std::size_t exercised = 0;
    for (const CorpusRoutine &routine : corpus) {
        for (const LoopNest &nest : routine.nests) {
            // Corpus nests carry no declarations and draw bounds up
            // to 256; shrink the bounds and synthesize conforming
            // declarations so interpretation stays cheap.
            LoopNest small = nest;
            for (std::size_t k = 0; k < small.depth(); ++k) {
                if (small.loop(k).upper.evaluate({}) > 10)
                    small.loop(k).upper = Bound::constant(10);
            }
            Program program;
            bool ranks_consistent = true;
            for (const Access &access : small.accesses()) {
                if (program.hasArray(access.ref.array())) {
                    if (program.array(access.ref.array()).extents.size()
                        != access.ref.dims()) {
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

            PipelineConfig config;
            config.distribute = true;
            config.interchange = true;
            config.optimizer.maxUnroll = 2;
            config.safety.oracle = true;
            config.safety.oracleSeed = corpus_config.seed;
            config.threads = 1;
            PipelineResult result = optimizeProgram(
                program, MachineModel::hpPa7100(), config);
            EXPECT_EQ(result.containedFaults(), 0u)
                << routine.name << "/" << nest.name() << ":\n"
                << safetyReport(result);
            ++exercised;
        }
    }
    // The corpus must actually exercise the pipeline, not skip out.
    EXPECT_GT(exercised, 40u);
}

} // namespace
} // namespace ujam
