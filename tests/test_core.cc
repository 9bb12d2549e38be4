/**
 * @file
 * Tests for the paper's core machinery: the unroll space, the
 * ComputeTable/Sum pipeline (Figs. 2-3), RRS construction (Fig. 4),
 * the RRS and register tables (Figs. 5, 7) and the optimizer
 * (section 4.5). The central property: table predictions equal
 * brute-force measurement of the actually-unrolled body.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "baseline/brute_force.hh"
#include "core/optimizer.hh"
#include "parser/parser.hh"
#include "scenarios/scenario.hh"
#include "support/diagnostics.hh"
#include "support/rng.hh"
#include "workloads/suite.hh"

namespace ujam
{
namespace
{

TEST(UnrollSpace, IndexingRoundTrip)
{
    UnrollSpace space(3, {0, 1}, {2, 3});
    EXPECT_EQ(space.size(), 12u);
    for (std::size_t i = 0; i < space.size(); ++i) {
        IntVector u = space.vectorAt(i);
        EXPECT_EQ(space.indexOf(u), i);
        EXPECT_TRUE(space.contains(u));
        EXPECT_EQ(u[2], 0); // innermost stays 0
    }
    EXPECT_FALSE(space.contains(IntVector{3, 0, 0}));
    EXPECT_FALSE(space.contains(IntVector{0, 0, 1}));
    EXPECT_EQ(space.maxVector(), (IntVector{2, 3, 0}));
}

TEST(UnrollSpace, RejectsInnermostDim)
{
    EXPECT_THROW(UnrollSpace(2, {1}, {4}), PanicError);
    EXPECT_THROW(UnrollSpace(3, {0, 0}, {1, 1}), PanicError);
}

TEST(UnrollTable, BoxAndPrefixSum)
{
    UnrollSpace space(2, {0}, {3});
    UnrollTable table(space, 2);
    table.addBox(IntVector{2, 0}, -1);
    EXPECT_EQ(table.at(IntVector{1, 0}), 2);
    EXPECT_EQ(table.at(IntVector{2, 0}), 1);
    EXPECT_EQ(table.at(IntVector{3, 0}), 1);

    UnrollTable sums = table.prefixSum();
    EXPECT_EQ(sums.at(IntVector{0, 0}), 2);
    EXPECT_EQ(sums.at(IntVector{1, 0}), 4);
    EXPECT_EQ(sums.at(IntVector{2, 0}), 5);
    EXPECT_EQ(sums.at(IntVector{3, 0}), 6);
}

TEST(UnrollTable, TwoDimPrefixSum)
{
    UnrollSpace space(3, {0, 1}, {1, 1});
    UnrollTable ones(space, 1);
    UnrollTable sums = ones.prefixSum();
    // prefix over a box counts the sub-box volume.
    EXPECT_EQ(sums.at(IntVector{0, 0, 0}), 1);
    EXPECT_EQ(sums.at(IntVector{1, 0, 0}), 2);
    EXPECT_EQ(sums.at(IntVector{0, 1, 0}), 2);
    EXPECT_EQ(sums.at(IntVector{1, 1, 0}), 4);
}

/** The paper's Figure 1: a(i,j) store and a(i-2,j) load, unroll i. */
TEST(SetTables, PaperFigure1Counts)
{
    LoopNest nest = parseSingleNest(R"(
do i = 1, 32
  do j = 1, 32
    a(i, j) = a(i-2, j) + 1.0
  end do
end do
)");
    UnrollSpace space(2, {0}, {3});
    Subspace inner = Subspace::coordinate(2, {1});
    NestTables tables = buildNestTables(nest, space, inner);
    ASSERT_EQ(tables.perUgs.size(), 1u);
    const UnrollTable &gts = tables.perUgs[0].groupTemporal;
    // Before unrolling: 2 GTSs. Copies merge from shift (2,0) on:
    // u=1 -> 4, u=2 -> 5, u=3 -> 6 (the paper's worked example).
    EXPECT_EQ(gts.at(IntVector{0, 0}), 2);
    EXPECT_EQ(gts.at(IntVector{1, 0}), 4);
    EXPECT_EQ(gts.at(IntVector{2, 0}), 5);
    EXPECT_EQ(gts.at(IntVector{3, 0}), 6);
}

TEST(SetTables, InvariantReferenceSelfMerges)
{
    // b(i) under an unrolled j loop: copies are identical; the GTS
    // count must stay 1 for every unroll amount.
    LoopNest nest = parseSingleNest(R"(
do j = 1, 32
  do i = 1, 32
    a(i, j) = b(i)
  end do
end do
)");
    UnrollSpace space(2, {0}, {4});
    Subspace inner = Subspace::coordinate(2, {1});
    NestTables tables = buildNestTables(nest, space, inner);
    const UgsTables *b_tables = nullptr;
    std::vector<UniformlyGeneratedSet> sets =
        partitionUGS(nest.accesses());
    for (std::size_t s = 0; s < sets.size(); ++s) {
        if (sets[s].array == "b")
            b_tables = &tables.perUgs[s];
    }
    ASSERT_NE(b_tables, nullptr);
    for (std::int64_t u = 0; u <= 4; ++u)
        EXPECT_EQ(b_tables->groupTemporal.at(IntVector{u, 0}), 1);
}

TEST(Rrs, PaperIntroExample)
{
    // a(j) = a(j) + b(i): a's UGS is innermost-invariant (one GTS ->
    // one RRS holding read and write); b is one plain load RRS.
    LoopNest nest = parseSingleNest(R"(
do j = 1, 32
  do i = 1, 32
    a(j) = a(j) + b(i)
  end do
end do
)");
    std::vector<UniformlyGeneratedSet> sets =
        partitionUGS(nest.accesses());
    ASSERT_EQ(sets.size(), 2u);
    const auto &a_set = sets[0].array == "a" ? sets[0] : sets[1];
    const auto &b_set = sets[0].array == "b" ? sets[0] : sets[1];
    EXPECT_TRUE(a_set.innerInvariant());
    RrsAnalysis a_rrs = computeRegisterReuseSets(a_set);
    ASSERT_EQ(a_rrs.sets.size(), 1u);
    EXPECT_EQ(a_rrs.sets[0].members.size(), 2u);
    EXPECT_EQ(a_rrs.sets[0].registersNeeded, 1);

    RrsAnalysis b_rrs = computeRegisterReuseSets(b_set);
    ASSERT_EQ(b_rrs.sets.size(), 1u);
    EXPECT_FALSE(b_rrs.sets[0].generatorIsDef);
}

TEST(Rrs, DefSplitsReuse)
{
    // Read a(i+2,j) ... write a(i,j) ... read a(i-1,j), i innermost:
    // flow order: a(i+2) touches first, then the store a(i), then
    // a(i-1). The store splits: RRS1 = {a(i+2) read}, RRS2 = {a(i)
    // def, a(i-1) read}.
    LoopNest nest = parseSingleNest(R"(
do j = 1, 32
  do i = 1, 32
    a(i, j) = a(i+2, j) + a(i-1, j)
  end do
end do
)");
    std::vector<UniformlyGeneratedSet> sets =
        partitionUGS(nest.accesses());
    ASSERT_EQ(sets.size(), 1u);
    RrsAnalysis rrs = computeRegisterReuseSets(sets[0]);
    ASSERT_EQ(rrs.sets.size(), 2u);
    // First set: the early-touching read alone.
    EXPECT_EQ(rrs.sets[0].members.size(), 1u);
    EXPECT_FALSE(rrs.sets[0].generatorIsDef);
    EXPECT_EQ(rrs.sets[0].registersNeeded, 1);
    // Second set: the def feeds the a(i-1) read one iteration later.
    EXPECT_EQ(rrs.sets[1].members.size(), 2u);
    EXPECT_TRUE(rrs.sets[1].generatorIsDef);
    EXPECT_EQ(rrs.sets[1].registersNeeded, 2);
}

TEST(Rrs, InnermostChainRegisters)
{
    // a(i,j) + a(i-1,j) + a(i-3,j) reads: one RRS spanning 3
    // iterations: 4 registers.
    LoopNest nest = parseSingleNest(R"(
do j = 1, 32
  do i = 1, 32
    x = a(i, j) + a(i-1, j) + a(i-3, j)
  end do
end do
)");
    std::vector<UniformlyGeneratedSet> sets =
        partitionUGS(nest.accesses());
    RrsAnalysis rrs = computeRegisterReuseSets(sets[0]);
    ASSERT_EQ(rrs.sets.size(), 1u);
    EXPECT_EQ(rrs.sets[0].members.size(), 3u);
    EXPECT_EQ(rrs.sets[0].registersNeeded, 4);
    EXPECT_EQ(rrs.totalRegisters(), 4);
}

// --- table vs. brute-force oracle ---------------------------------------

void
expectTablesMatchBruteForce(const LoopNest &nest,
                            const UnrollSpace &space)
{
    Subspace inner =
        Subspace::coordinate(nest.depth(), {nest.depth() - 1});
    LocalityParams params;
    NestTables tables = buildNestTables(nest, space, inner);
    std::int64_t total_gts_check = 0;

    for (std::size_t i = 0; i < space.size(); ++i) {
        IntVector u = space.vectorAt(i);
        BodyCounts exact = measureUnrolledBody(nest, u, inner, params);

        std::int64_t table_gts = 0;
        std::int64_t table_gss = 0;
        for (const UgsTables &t : tables.perUgs) {
            table_gts += t.groupTemporal.at(u);
            table_gss += t.groupSpatial.at(u);
        }
        EXPECT_EQ(table_gts, exact.groupTemporal)
            << "GTS mismatch at u=" << u.toString() << " in\n"
            << nest.name();
        EXPECT_EQ(table_gss, exact.groupSpatial)
            << "GSS mismatch at u=" << u.toString() << " in\n"
            << nest.name();
        EXPECT_EQ(tables.rrsTotal.at(u), exact.memOps)
            << "VM mismatch at u=" << u.toString() << " in\n"
            << nest.name();
        EXPECT_EQ(tables.registersTotal.at(u), exact.registers)
            << "register mismatch at u=" << u.toString() << " in\n"
            << nest.name();
        total_gts_check += table_gts;
    }
    EXPECT_GT(total_gts_check, 0);
}

TEST(TableOracle, StencilLoops)
{
    const char *sources[] = {
        R"(
do j = 1, 32
  do i = 1, 32
    a(i, j) = a(i, j-1) + a(i, j-2) + b(i)
  end do
end do
)",
        R"(
do j = 1, 32
  do i = 1, 32
    a(i, j) = b(i, j) + b(i, j-1) + c(j)
  end do
end do
)",
        R"(
do j = 1, 32
  do i = 1, 32
    a(j) = a(j) + b(i) * c(i, j)
  end do
end do
)",
    };
    for (const char *source : sources) {
        LoopNest nest = parseSingleNest(source);
        UnrollSpace space(2, {0}, {4});
        expectTablesMatchBruteForce(nest, space);
    }
}

TEST(TableOracle, ThreeDeepTwoUnrolledLoops)
{
    LoopNest nest = parseSingleNest(R"(
do i = 1, 16
  do j = 1, 16
    do k = 1, 16
      c(k, j) = c(k, j) + a(k, i) * b(i, j) + a(k, i-1)
    end do
  end do
end do
)");
    UnrollSpace space(3, {0, 1}, {3, 3});
    expectTablesMatchBruteForce(nest, space);
}

/**
 * Randomized oracle: stencil nests with non-negative outer offsets
 * (sign-consistent, where the tables are exact -- see DESIGN.md).
 */
class TableOracleRandom : public ::testing::TestWithParam<int>
{};

TEST_P(TableOracleRandom, MatchesBruteForce)
{
    Rng rng(7000 + GetParam());
    std::ostringstream src;
    src << "do j = 1, 32\n  do i = 1, 32\n    a(i";
    // LHS a(i + s, j): occasionally shifted.
    std::int64_t ls = rng.range(0, 1);
    if (ls != 0)
        src << "+" << ls;
    src << ", j) = ";
    int reads = static_cast<int>(rng.range(1, 4));
    for (int r = 0; r < reads; ++r) {
        if (r > 0)
            src << " + ";
        switch (rng.range(0, 2)) {
          case 0: // same-array stencil read, non-negative j offset
            src << "a(i";
            if (std::int64_t di = rng.range(-2, 2); di != 0)
                src << (di > 0 ? "+" : "") << di;
            src << ", j";
            if (std::int64_t dj = rng.range(-3, 0); dj != 0)
                src << dj;
            src << ")";
            break;
          case 1: // second-array read
            src << "b(i";
            if (std::int64_t di = rng.range(-1, 1); di != 0)
                src << (di > 0 ? "+" : "") << di;
            src << ", j";
            if (std::int64_t dj = rng.range(-2, 0); dj != 0)
                src << dj;
            src << ")";
            break;
          default: // invariant read
            src << "c(i)";
            break;
        }
    }
    src << "\n  end do\nend do\n";
    LoopNest nest = parseSingleNest(src.str());
    nest.setName(src.str());
    UnrollSpace space(2, {0}, {4});
    expectTablesMatchBruteForce(nest, space);
}

INSTANTIATE_TEST_SUITE_P(RandomStencils, TableOracleRandom,
                         ::testing::Range(0, 30));

TEST(TableOracle, MivReferencesCacheTablesExact)
{
    // afold's b(i+j): non-separable, but the general merge solver
    // still predicts the GTS/GSS counts exactly -- copies along j
    // collapse into the original diagonal stream.
    LoopNest nest = parseSingleNest(R"(
do j = 1, 32
  do i = 1, 32
    a(i) = a(i) + b(i + j) * c(j)
  end do
end do
)");
    UnrollSpace space(2, {0}, {4});
    expectTablesMatchBruteForce(nest, space);

    Subspace inner = Subspace::coordinate(2, {1});
    NestTables tables = buildNestTables(nest, space, inner);
    const UgsTables *b_tables = nullptr;
    std::vector<UniformlyGeneratedSet> sets =
        partitionUGS(nest.accesses());
    for (std::size_t s = 0; s < sets.size(); ++s) {
        if (sets[s].array == "b")
            b_tables = &tables.perUgs[s];
    }
    ASSERT_NE(b_tables, nullptr);
    EXPECT_FALSE(b_tables->analyzable);
    // One diagonal stream no matter how far j unrolls.
    for (std::int64_t u = 0; u <= 4; ++u)
        EXPECT_EQ(b_tables->groupTemporal.at(IntVector{u, 0}), 1);
}

TEST(Rrs, RationalGtsSplitsByPhaseResidue)
{
    // a(2i) and a(2i+1) fall into one rational GTS (the Wolf-Lam
    // vector-space abstraction) but interleave in memory: they must
    // land in separate register-reuse sets, each needing 1 register.
    LoopNest nest = parseSingleNest(R"(
do j = 1, 16
  do i = 1, 16
    x = a(2*i, j) + a(2*i + 1, j)
  end do
end do
)");
    std::vector<UniformlyGeneratedSet> sets =
        partitionUGS(nest.accesses());
    ASSERT_EQ(sets.size(), 1u);
    RrsAnalysis rrs = computeRegisterReuseSets(sets[0]);
    ASSERT_EQ(rrs.sets.size(), 2u);
    EXPECT_EQ(rrs.sets[0].registersNeeded, 1);
    EXPECT_EQ(rrs.sets[1].registersNeeded, 1);

    // Integral-distance strided refs still chain: a(2i) and a(2i-2)
    // are one set spanning one iteration.
    LoopNest chained = parseSingleNest(R"(
do j = 1, 16
  do i = 1, 16
    x = a(2*i, j) + a(2*i - 2, j)
  end do
end do
)");
    RrsAnalysis rrs2 = computeRegisterReuseSets(
        partitionUGS(chained.accesses())[0]);
    ASSERT_EQ(rrs2.sets.size(), 1u);
    EXPECT_EQ(rrs2.sets[0].registersNeeded, 2);
}

// --- optimizer -----------------------------------------------------------

/** Expect equal tables at u (every per-UGS and every total cell). */
void
expectSameCells(const NestTables &a, const NestTables &b,
                const IntVector &u, const std::string &what)
{
    ASSERT_EQ(a.perUgs.size(), b.perUgs.size()) << what;
    for (std::size_t s = 0; s < a.perUgs.size(); ++s) {
        const UgsTables &x = a.perUgs[s];
        const UgsTables &y = b.perUgs[s];
        EXPECT_EQ(x.groupTemporal.at(u), y.groupTemporal.at(u)) << what;
        EXPECT_EQ(x.groupSpatial.at(u), y.groupSpatial.at(u)) << what;
        EXPECT_EQ(x.rrs.at(u), y.rrs.at(u)) << what;
        EXPECT_EQ(x.registers.at(u), y.registers.at(u)) << what;
    }
    EXPECT_EQ(a.rrsTotal.at(u), b.rrsTotal.at(u)) << what;
    EXPECT_EQ(a.registersTotal.at(u), b.registersTotal.at(u)) << what;
}

TEST(NestTables, CellsDependOnThePointAlone)
{
    // The analysis report prints its rows (amounts <= 4) from the
    // tables the decision was built over. That is sound only if a cell
    // is the same whatever box the tables cover, and if the larger
    // space, filtered to the box, enumerates the box's points in the
    // box's own order.
    std::vector<Program> programs;
    for (const SuiteLoop &loop : testSuite())
        programs.push_back(loadSuiteProgram(loop));
    for (const IScenarioGenerator *family : scenarioRegistry()) {
        std::string error;
        std::optional<ScenarioSpec> spec = parseScenarioSpec(
            std::string(family->family()) + "::0", &error);
        ASSERT_TRUE(spec.has_value()) << error;
        GeneratedScenario scenario = generateScenario(*spec);
        programs.push_back(parseProgram(scenario.source, scenario.name));
    }

    const MachineModel machine = MachineModel::decAlpha21064();
    std::size_t boxes = 0;
    for (const Program &program : programs) {
        const LoopNest &nest = program.nests()[0];
        if (nest.depth() < 2)
            continue;
        for (std::int64_t max_unroll : {4, 8}) {
            OptimizerConfig config;
            config.maxUnroll = max_unroll;
            UnrollProblem problem = unrollProblem(nest, machine, config);
            const UnrollSpace &space = problem.space;
            std::vector<std::int64_t> limits;
            for (std::int64_t limit : space.limits())
                limits.push_back(std::min<std::int64_t>(4, limit));
            UnrollSpace box(nest.depth(), space.dims(), limits);
            NestTables full =
                buildNestTables(nest, space, problem.localized);
            NestTables shown = buildNestTables(nest, box, problem.localized);

            std::vector<IntVector> filtered;
            for (std::size_t i = 0; i < space.size(); ++i) {
                IntVector u = space.vectorAt(i);
                if (box.contains(u))
                    filtered.push_back(u);
            }
            ASSERT_EQ(filtered.size(), box.size()) << program.sourceName();
            for (std::size_t i = 0; i < box.size(); ++i) {
                std::string what = concat(program.sourceName(), " at ",
                                          max_unroll, " u=",
                                          box.vectorAt(i).toString());
                EXPECT_EQ(filtered[i], box.vectorAt(i)) << what;
                expectSameCells(full, shown, box.vectorAt(i), what);
            }
            ++boxes;
        }
    }
    EXPECT_GE(boxes, 2 * testSuite().size());
}

TEST(Optimizer, PaperIntroExampleOnBalancedMachine)
{
    // a(j) = a(j) + b(i): balance 1 (one load, one flop). On a machine
    // with bM = 0.5, unrolling j once halves the loop balance to 0.5.
    LoopNest nest = parseSingleNest(R"(
do j = 1, 64
  do i = 1, 64
    a(j) = a(j) + b(i)
  end do
end do
)");
    MachineModel machine = MachineModel::hpPa7100(); // bM = 0.5
    OptimizerConfig config;
    config.useCacheModel = false; // the paper's intro ignores cache
    UnrollDecision decision = chooseUnrollAmounts(nest, machine, config);
    EXPECT_EQ(decision.unroll, (IntVector{1, 0}));
    EXPECT_NEAR(decision.predictedBalance, 0.5, 1e-9);
    EXPECT_NEAR(decision.originalBalance, 1.0, 1e-9);
}

TEST(Optimizer, AlreadyBalancedLoopLeftAlone)
{
    LoopNest nest = parseSingleNest(R"(
do j = 1, 64
  do i = 1, 64
    a(j) = a(j) + b(i)
  end do
end do
)");
    MachineModel machine = MachineModel::decAlpha21064(); // bM = 1
    OptimizerConfig config;
    config.useCacheModel = false;
    UnrollDecision decision = chooseUnrollAmounts(nest, machine, config);
    // Original balance is already 1.0 == bM.
    EXPECT_TRUE(decision.unroll.isZero());
}

TEST(Optimizer, RegisterConstraintCapsUnrolling)
{
    LoopNest nest = parseSingleNest(R"(
do j = 1, 64
  do i = 1, 64
    a(j) = a(j) + b(i)
  end do
end do
)");
    MachineModel machine = MachineModel::hpPa7100();
    machine.flopsPerCycle = 16.0; // bM = 1/16: wants deep unrolling
    OptimizerConfig config;
    config.useCacheModel = false;
    config.maxUnroll = 64;

    machine.fpRegisters = 6;
    UnrollDecision tight = chooseUnrollAmounts(nest, machine, config);
    machine.fpRegisters = 64;
    UnrollDecision roomy = chooseUnrollAmounts(nest, machine, config);
    EXPECT_LE(tight.unroll[0], roomy.unroll[0]);
    EXPECT_LE(tight.registers, 6);
    EXPECT_GT(roomy.unroll[0], tight.unroll[0]);
}

TEST(Optimizer, SafetyBoundsRespected)
{
    // Interchange-preventing dependence at distance (3, -1): unroll
    // of j must stay <= 2 no matter how attractive.
    LoopNest nest = parseSingleNest(R"(
do j = 1, 64
  do i = 1, 64
    a(i, j) = a(i+1, j-3) + b(i)
  end do
end do
)");
    MachineModel machine = MachineModel::hpPa7100();
    machine.flopsPerCycle = 16.0;
    OptimizerConfig config;
    config.useCacheModel = false;
    config.maxUnroll = 16;
    UnrollDecision decision = chooseUnrollAmounts(nest, machine, config);
    EXPECT_LE(decision.unroll[0], 2);
    EXPECT_EQ(decision.safetyBounds[0], 2);
}

TEST(Optimizer, CacheModelPrefersMissReducingLoop)
{
    // Column-major a(i,j) with i innermost: walking j outer streams
    // whole columns. Reuse of a(i,j-1) carried by j cuts misses when
    // j is unrolled; the cache-aware decision must unroll j.
    LoopNest nest = parseSingleNest(R"(
do j = 1, 64
  do i = 1, 64
    b(i, j) = a(i, j) * a(i, j-1) * a(i, j-2)
  end do
end do
)");
    MachineModel machine = MachineModel::decAlpha21064();
    OptimizerConfig config;
    UnrollDecision with_cache = chooseUnrollAmounts(nest, machine, config);
    EXPECT_GT(with_cache.unroll[0], 0);
    EXPECT_LT(with_cache.predictedBalance, with_cache.originalBalance);
}

TEST(Optimizer, DegenerateNests)
{
    LoopNest one_deep = parseSingleNest(R"(
do i = 1, 8
  a(i) = a(i) + 1.0
end do
)");
    MachineModel machine = MachineModel::decAlpha21064();
    UnrollDecision decision = chooseUnrollAmounts(one_deep, machine);
    EXPECT_TRUE(decision.unroll.isZero());
    EXPECT_FALSE(decision.transforms());
}

TEST(Optimizer, DecisionToStringMentionsKeyNumbers)
{
    LoopNest nest = parseSingleNest(R"(
do j = 1, 64
  do i = 1, 64
    a(j) = a(j) + b(i)
  end do
end do
)");
    UnrollDecision decision =
        chooseUnrollAmounts(nest, MachineModel::hpPa7100());
    std::string text = decision.toString();
    EXPECT_NE(text.find("unroll="), std::string::npos);
    EXPECT_NE(text.find("bM="), std::string::npos);
}

TEST(Optimizer, SingleLoopConfig)
{
    // maxLoops = 1 restricts the search to the best single loop.
    LoopNest nest = parseSingleNest(R"(
do i = 1, 32
  do j = 1, 32
    do k = 1, 32
      c(k, j) = c(k, j) + a(k, i) * b(i, j)
    end do
  end do
end do
)");
    OptimizerConfig config;
    config.maxLoops = 1;
    config.maxUnroll = 3;
    UnrollDecision decision = chooseUnrollAmounts(
        nest, MachineModel::decAlpha21064(), config);
    EXPECT_LE(decision.consideredLoops.size(), 1u);
    std::size_t nonzero = 0;
    for (std::size_t k = 0; k < decision.unroll.size(); ++k)
        nonzero += decision.unroll[k] != 0;
    EXPECT_LE(nonzero, 1u);
}

TEST(Optimizer, RegisterLimitToggle)
{
    LoopNest nest = parseSingleNest(R"(
do j = 1, 64
  do i = 1, 64
    a(j) = a(j) + b(i)
  end do
end do
)");
    MachineModel machine = MachineModel::hpPa7100();
    machine.flopsPerCycle = 32.0; // wants very deep unrolling
    machine.fpRegisters = 4;
    OptimizerConfig config;
    config.useCacheModel = false;
    config.maxUnroll = 32;

    UnrollDecision constrained =
        chooseUnrollAmounts(nest, machine, config);
    config.limitRegisters = false;
    UnrollDecision unconstrained =
        chooseUnrollAmounts(nest, machine, config);
    EXPECT_LT(constrained.unroll[0], unconstrained.unroll[0]);
    EXPECT_LE(constrained.registers, 4);
}

TEST(Optimizer, LineSizeShapesCacheDecisions)
{
    // Larger lines make spatial streams cheaper (Eq. 1 divides by
    // the line length), so predicted misses must drop monotonically.
    LoopNest nest = parseSingleNest(R"(
do j = 1, 64
  do i = 1, 64
    b(i, j) = a(i, j) * a(i, j-1)
  end do
end do
)");
    double last = 1e30;
    for (std::int64_t line : {16, 32, 64, 128}) {
        MachineModel machine = MachineModel::decAlpha21064();
        machine.lineBytes = line;
        OptimizerConfig config;
        config.maxUnroll = 2;
        UnrollDecision decision =
            chooseUnrollAmounts(nest, machine, config);
        EXPECT_LT(decision.misses, last);
        last = decision.misses;
    }
}

// --- brute force agreement ------------------------------------------------

class BruteForceAgreement : public ::testing::TestWithParam<int>
{};

TEST_P(BruteForceAgreement, SameDecisionAsTables)
{
    static const char *sources[] = {
        R"(
do j = 1, 64
  do i = 1, 64
    a(j) = a(j) + b(i)
  end do
end do
)",
        R"(
do j = 1, 64
  do i = 1, 64
    a(i, j) = a(i, j-1) + a(i, j-2) + b(i)
  end do
end do
)",
        R"(
do j = 1, 32
  do k = 1, 32
    do i = 1, 32
      c(i, j) = c(i, j) + a(i, k) * b(k, j)
    end do
  end do
end do
)",
        R"(
do j = 1, 64
  do i = 1, 64
    b(i, j) = a(i, j) * a(i, j-1) * a(i, j-2)
  end do
end do
)",
    };
    LoopNest nest = parseSingleNest(sources[GetParam()]);
    for (const MachineModel &machine :
         {MachineModel::decAlpha21064(), MachineModel::hpPa7100()}) {
        OptimizerConfig config;
        config.maxUnroll = 4;
        UnrollDecision table_decision =
            chooseUnrollAmounts(nest, machine, config);
        BruteForceResult brute =
            bruteForceChooseUnroll(nest, machine, config);
        EXPECT_EQ(table_decision.unroll, brute.unroll)
            << "on " << machine.name;
        EXPECT_NEAR(table_decision.predictedBalance,
                    brute.predictedBalance, 1e-9)
            << "on " << machine.name;
    }
}

INSTANTIATE_TEST_SUITE_P(Loops, BruteForceAgreement,
                         ::testing::Range(0, 4));

} // namespace
} // namespace ujam
