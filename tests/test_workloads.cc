/**
 * @file
 * Tests for the Table-2 suite and the Table-1 corpus generator,
 * including end-to-end integration over the whole suite: analyze,
 * decide, transform, verify semantics, simulate.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "baseline/brute_force.hh"
#include "baseline/dep_based.hh"
#include "core/optimizer.hh"
#include "ir/interp.hh"
#include "sim/simulator.hh"
#include "transform/scalar_replacement.hh"
#include "transform/unroll_and_jam.hh"
#include "ir/printer.hh"
#include "parser/parser.hh"
#include "support/diagnostics.hh"
#include "support/rng.hh"
#include "workloads/corpus.hh"
#include "workloads/suite.hh"

namespace ujam
{
namespace
{

TEST(Suite, HasNineteenLoops)
{
    ASSERT_EQ(testSuite().size(), 19u);
    EXPECT_EQ(testSuite().front().name, "jacobi");
    EXPECT_EQ(testSuite().back().name, "shal");
    for (std::size_t i = 0; i < testSuite().size(); ++i)
        EXPECT_EQ(testSuite()[i].number, static_cast<int>(i) + 1);
}

TEST(Suite, LookupByName)
{
    EXPECT_EQ(suiteLoop("mmjik").number, 15);
    EXPECT_THROW(suiteLoop("nope"), FatalError);
}

TEST(Suite, AllLoopsParseAndValidate)
{
    for (const SuiteLoop &loop : testSuite()) {
        Program program = loadSuiteProgram(loop);
        EXPECT_EQ(program.nests().size(), 1u) << loop.name;
        EXPECT_GE(program.nests()[0].depth(), 2u) << loop.name;
    }
}

TEST(Suite, MostLoopsAreSivSeparable)
{
    // Section 3.5: "nearly all" references fit the SIV separable
    // criteria; in this suite only afold (adjoint convolution) does
    // not.
    std::size_t analyzable = 0;
    for (const SuiteLoop &loop : testSuite()) {
        Program program = loadSuiteProgram(loop);
        analyzable += program.nests()[0].allRefsAnalyzable();
    }
    EXPECT_GE(analyzable, 18u);
}

/** Full pipeline: decide -> transform -> verify -> simulate. */
class SuiteIntegration : public ::testing::TestWithParam<int>
{};

TEST_P(SuiteIntegration, DecideTransformVerifySimulate)
{
    const SuiteLoop &loop =
        testSuite()[static_cast<std::size_t>(GetParam())];
    Program program = loadSuiteProgram(loop);
    MachineModel machine = MachineModel::hpPa7100();
    OptimizerConfig config;
    config.maxUnroll = 4;

    UnrollDecision decision =
        chooseUnrollAmounts(program.nests()[0], machine, config);
    EXPECT_LE(decision.registers, machine.fpRegisters) << loop.name;

    Program transformed = unrollAndJam(program, 0, decision.unroll);
    for (LoopNest &nest : transformed.nests())
        nest = scalarReplace(nest).nest;

    // Semantics must hold on a shrunken problem (fast interpreter run)
    // including remainder iterations (odd size).
    ParamBindings small{{"n", 23}, {"m", 19}};
    Interpreter a(program, small);
    Interpreter b(transformed, small);
    a.seedArrays(99);
    b.seedArrays(99);
    a.run();
    b.run();
    EXPECT_EQ(a.compareArrays(b, 1e-9), "") << loop.name;

    // Simulated time of the transformed loop must not regress badly
    // (capacity effects allow a small overshoot; see EXPERIMENTS.md).
    SimResult before = simulateProgram(program, machine);
    SimResult after = simulateProgram(transformed, machine);
    EXPECT_LT(after.cycles, before.cycles * 1.15) << loop.name;
}

INSTANTIATE_TEST_SUITE_P(AllLoops, SuiteIntegration,
                         ::testing::Range(0, 19));

TEST(SuiteDecisions, TableBruteForceAndDepBasedAgree)
{
    // The headline claim of sections 2 and 5: the UGS tables make the
    // same decisions as both the brute-force method and the
    // dependence-based model, without input dependences.
    for (const SuiteLoop &loop : testSuite()) {
        Program program = loadSuiteProgram(loop);
        const LoopNest &nest = program.nests()[0];
        MachineModel machine = MachineModel::decAlpha21064();
        OptimizerConfig config;
        config.maxUnroll = 3;

        UnrollDecision table =
            chooseUnrollAmounts(nest, machine, config);
        BruteForceResult brute =
            bruteForceChooseUnroll(nest, machine, config);
        DepBasedResult deps =
            depBasedChooseUnroll(nest, machine, config);

        EXPECT_EQ(table.unroll, brute.unroll) << loop.name;
        EXPECT_EQ(table.unroll, deps.decision.unroll) << loop.name;
        // And the dependence-based method had to pay for its graph.
        EXPECT_GE(deps.graphBytes, deps.graphBytesNoInput) << loop.name;
    }

    // The baselines search the table method's space: with i's trip of
    // 3 the range pre-filter drops the distance-3 flow dependence, so
    // i may unroll by 3. (Balances differ here -- the RRS table counts
    // one memory operation fewer than the unrolled body -- so compare
    // vectors only.)
    LoopNest pruned = parseSingleNest(R"(
do i = 1, 3
  do j = 2, 30
    a(i + 3, j - 1) = a(i, j) + b(j, i)
  end do
end do
)");
    for (const MachineModel &machine :
         {MachineModel::decAlpha21064(), MachineModel::hpPa7100()}) {
        OptimizerConfig config;
        config.maxUnroll = 3;
        UnrollDecision table = chooseUnrollAmounts(pruned, machine, config);
        EXPECT_EQ(table.unroll, (IntVector{3, 0})) << machine.name;
        EXPECT_EQ(bruteForceChooseUnroll(pruned, machine, config).unroll,
                  table.unroll)
            << machine.name;
        EXPECT_EQ(depBasedChooseUnroll(pruned, machine, config)
                      .decision.unroll,
                  table.unroll)
            << machine.name;
    }
}

class DecisionAgreement : public ::testing::TestWithParam<int>
{};

TEST_P(DecisionAgreement, RandomStencilsAllThreeMethodsAgree)
{
    Rng rng(15000 + GetParam());
    std::ostringstream src;
    src << "do j = 1, 48\n  do i = 1, 48\n    a(i, j) = ";
    int reads = static_cast<int>(rng.range(1, 3));
    for (int r = 0; r < reads; ++r) {
        if (r > 0)
            src << " + ";
        switch (rng.range(0, 2)) {
          case 0:
            src << "a(i, j" << rng.range(-3, -1) << ")";
            break;
          case 1:
            src << "b(i" << (rng.chance(0.5) ? "-1" : "") << ", j)";
            break;
          default:
            src << "c(i)";
            break;
        }
    }
    src << "\n  end do\nend do\n";
    LoopNest nest = parseSingleNest(src.str());
    MachineModel machine = rng.chance(0.5)
                               ? MachineModel::decAlpha21064()
                               : MachineModel::hpPa7100();
    OptimizerConfig config;
    config.maxUnroll = 3;
    UnrollDecision table = chooseUnrollAmounts(nest, machine, config);
    BruteForceResult brute =
        bruteForceChooseUnroll(nest, machine, config);
    DepBasedResult deps = depBasedChooseUnroll(nest, machine, config);
    EXPECT_EQ(table.unroll, brute.unroll) << src.str();
    EXPECT_EQ(table.unroll, deps.decision.unroll) << src.str();
}

INSTANTIATE_TEST_SUITE_P(Random, DecisionAgreement,
                         ::testing::Range(0, 20));

TEST(SuiteDecisions, GoldenUnrollVectors)
{
    // Regression net: the decisions the benchmarks report. A model
    // change that moves any of these should be a conscious one.
    struct Golden
    {
        const char *loop;
        const char *alpha;
        const char *parisc;
    };
    static const Golden golden[] = {
        {"jacobi", "(4, 0)", "(4, 0)"},
        {"afold", "(4, 0)", "(4, 0)"},
        {"btrix.2", "(3, 2, 0)", "(2, 2, 0)"},
        {"btrix.7", "(4, 1, 0)", "(4, 1, 0)"},
        {"dflux.16", "(0, 0)", "(0, 0)"},
        {"dmxpy1", "(4, 0)", "(4, 0)"},
        {"mmjik", "(3, 4, 0)", "(3, 3, 0)"},
        {"mmjki", "(2, 3, 0)", "(2, 2, 0)"},
        {"sor", "(4, 0)", "(4, 0)"},
        {"shal", "(2, 0)", "(1, 0)"},
    };
    OptimizerConfig config;
    config.maxUnroll = 4;
    for (const Golden &expectation : golden) {
        Program program = loadSuiteProgram(suiteLoop(expectation.loop));
        UnrollDecision alpha = chooseUnrollAmounts(
            program.nests()[0], MachineModel::decAlpha21064(), config);
        UnrollDecision parisc = chooseUnrollAmounts(
            program.nests()[0], MachineModel::hpPa7100(), config);
        EXPECT_EQ(alpha.unroll.toString(), expectation.alpha)
            << expectation.loop << " on Alpha";
        EXPECT_EQ(parisc.unroll.toString(), expectation.parisc)
            << expectation.loop << " on PA-RISC";
    }
}

TEST(Corpus, DeterministicGeneration)
{
    CorpusConfig config;
    config.routines = 20;
    auto a = generateCorpus(config);
    auto b = generateCorpus(config);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].nests.size(), b[i].nests.size());
        for (std::size_t n = 0; n < a[i].nests.size(); ++n) {
            EXPECT_EQ(a[i].nests[n].accesses().size(),
                      b[i].nests[n].accesses().size());
        }
    }
}

TEST(Corpus, StatisticsLandInThePaperBand)
{
    CorpusConfig config;
    config.routines = 400; // subset for test speed
    CorpusStats stats = analyzeCorpus(generateCorpus(config));

    // Section 5.1 shape targets: about half the routines have
    // dependences at all (paper: 649/1187); input deps dominate the
    // total count; the per-routine mean sits mid-range with a wide
    // spread; both the 0% and the 90-100% buckets are populated.
    EXPECT_GT(stats.routinesWithDeps, stats.routinesTotal * 4 / 10);
    EXPECT_LT(stats.routinesWithDeps, stats.routinesTotal * 7 / 10);
    EXPECT_GT(stats.totalInputPercent(), 75.0);
    EXPECT_LT(stats.totalInputPercent(), 95.0);
    EXPECT_GT(stats.meanInputPercent, 45.0);
    EXPECT_LT(stats.meanInputPercent, 80.0);
    EXPECT_GT(stats.stddevInputPercent, 20.0);
    ASSERT_EQ(stats.histogram.size(), 9u);
    EXPECT_GT(stats.histogram[0], 0u); // some 0% routines
    EXPECT_GT(stats.histogram[8],
              stats.routinesWithDeps / 5); // heavy 90-100% bucket
    // The storage claim: dropping input deps saves the same share.
    EXPECT_LT(stats.graphBytesNoInput, stats.graphBytes / 3);
}

TEST(Corpus, NestsSurvivePrintParseRoundTrip)
{
    // Thousands of generated nests through the printer and back:
    // large-scale structural coverage of both components.
    CorpusConfig config;
    config.routines = 150;
    std::size_t nests_checked = 0;
    for (const CorpusRoutine &routine : generateCorpus(config)) {
        for (const LoopNest &nest : routine.nests) {
            std::string text = renderLoopNest(nest);
            LoopNest reparsed = parseSingleNest(text);
            ASSERT_EQ(reparsed.depth(), nest.depth()) << text;
            ASSERT_EQ(reparsed.accesses().size(),
                      nest.accesses().size())
                << text;
            // Same reference structure, access by access.
            auto a = nest.accesses();
            auto b = reparsed.accesses();
            for (std::size_t i = 0; i < a.size(); ++i) {
                EXPECT_EQ(a[i].ref, b[i].ref) << text;
                EXPECT_EQ(a[i].isWrite, b[i].isWrite) << text;
            }
            ++nests_checked;
        }
    }
    EXPECT_GT(nests_checked, 300u);
}

TEST(Corpus, BucketLabelsMatchTable1)
{
    const auto &labels = corpusBucketLabels();
    ASSERT_EQ(labels.size(), 9u);
    EXPECT_EQ(labels.front(), "0%");
    EXPECT_EQ(labels.back(), "90%-100%");
}

TEST(DepBased, ReportsStorageBill)
{
    LoopNest nest = loadSuiteProgram(suiteLoop("collc.2")).nests()[0];
    DepBasedResult result =
        depBasedChooseUnroll(nest, MachineModel::decAlpha21064());
    // collc.2 reads dw four times: six input pairs dominate.
    EXPECT_GT(result.inputEdges, 0u);
    EXPECT_GE(result.graphEdges, result.inputEdges);
    EXPECT_EQ(result.graphBytes - result.graphBytesNoInput,
              result.inputEdges *
                  DependenceGraph::edgeBytes(nest.depth()));
    // The UGS model's records are far smaller than the input-dep
    // portion of the graph for read-heavy loops.
    EXPECT_GT(ugsModelBytes(nest), 0u);
}

} // namespace
} // namespace ujam
