/**
 * @file
 * Experiment E6 -- table method vs brute force (section 2 vs Wolf,
 * Maydan & Chen [2]) and vs the dependence-based model ([1]).
 *
 * Verifies all three pick the same unroll vectors on the suite, then
 * times them: the tables do closed-form merge-point work once; brute
 * force re-unrolls and re-measures a body per candidate point. Exits 1
 * when any suite loop's three vectors differ, so a benchmark smoke run
 * gates the agreement claim.
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include "baseline/brute_force.hh"
#include "baseline/dep_based.hh"
#include "workloads/suite.hh"

namespace
{

ujam::OptimizerConfig
benchConfig()
{
    ujam::OptimizerConfig config;
    config.maxUnroll = 4;
    return config;
}

/** Print the decision table; @return True iff every loop agrees. */
bool
printAgreement()
{
    using namespace ujam;
    MachineModel machine = MachineModel::decAlpha21064();
    std::printf("\n=== E6: decisions and analysis work, tables vs brute "
                "force ===\n\n");
    std::printf("%-10s %-12s %-12s %-12s %10s %10s\n", "loop",
                "u(tables)", "u(brute)", "u(dep-based)", "refs seen",
                "peak refs");
    std::size_t agreements = 0;
    for (const SuiteLoop &loop : testSuite()) {
        Program program = loadSuiteProgram(loop);
        const LoopNest &nest = program.nests()[0];
        UnrollDecision table =
            chooseUnrollAmounts(nest, machine, benchConfig());
        BruteForceResult brute =
            bruteForceChooseUnroll(nest, machine, benchConfig());
        DepBasedResult deps =
            depBasedChooseUnroll(nest, machine, benchConfig());
        agreements += (table.unroll == brute.unroll &&
                       table.unroll == deps.decision.unroll);
        std::printf("%-10s %-12s %-12s %-12s %10zu %10zu\n",
                    loop.name.c_str(), table.unroll.toString().c_str(),
                    brute.unroll.toString().c_str(),
                    deps.decision.unroll.toString().c_str(),
                    brute.totalBodyRefs, brute.peakBodyRefs);
    }
    std::printf("\nagreement: %zu / %zu loops\n", agreements,
                testSuite().size());
    return agreements == testSuite().size();
}

void
BM_TableMethod(benchmark::State &state)
{
    using namespace ujam;
    Program program = loadSuiteProgram(
        testSuite()[static_cast<std::size_t>(state.range(0))]);
    MachineModel machine = MachineModel::decAlpha21064();
    for (auto _ : state) {
        UnrollDecision decision = chooseUnrollAmounts(
            program.nests()[0], machine, benchConfig());
        benchmark::DoNotOptimize(decision);
    }
    state.SetLabel(testSuite()[static_cast<std::size_t>(state.range(0))]
                       .name);
}
BENCHMARK(BM_TableMethod)->Arg(0)->Arg(10)->Arg(14)->Arg(15);

void
BM_BruteForce(benchmark::State &state)
{
    using namespace ujam;
    Program program = loadSuiteProgram(
        testSuite()[static_cast<std::size_t>(state.range(0))]);
    MachineModel machine = MachineModel::decAlpha21064();
    for (auto _ : state) {
        BruteForceResult result = bruteForceChooseUnroll(
            program.nests()[0], machine, benchConfig());
        benchmark::DoNotOptimize(result);
    }
    state.SetLabel(testSuite()[static_cast<std::size_t>(state.range(0))]
                       .name);
}
BENCHMARK(BM_BruteForce)->Arg(0)->Arg(10)->Arg(14)->Arg(15);

void
BM_DepBased(benchmark::State &state)
{
    using namespace ujam;
    Program program = loadSuiteProgram(
        testSuite()[static_cast<std::size_t>(state.range(0))]);
    MachineModel machine = MachineModel::decAlpha21064();
    for (auto _ : state) {
        DepBasedResult result = depBasedChooseUnroll(
            program.nests()[0], machine, benchConfig());
        benchmark::DoNotOptimize(result);
    }
    state.SetLabel(testSuite()[static_cast<std::size_t>(state.range(0))]
                       .name);
}
BENCHMARK(BM_DepBased)->Arg(0)->Arg(10)->Arg(14)->Arg(15);

} // namespace

int
main(int argc, char **argv)
{
    bool agree = printAgreement();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return agree ? 0 : 1;
}
