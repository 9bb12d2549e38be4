/**
 * @file
 * Experiment E1 -- paper Table 1 and section 5.1.
 *
 * Runs the 1187-routine corpus through the dependence analyzer and
 * reports: the share of dependences that are input dependences
 * (paper: 84% of 305,885), the per-routine mean and deviation
 * (paper: 55.7% +/- 33.6), the Table 1 histogram, and the
 * dependence-graph storage saved by dropping input dependences. The
 * google-benchmark section times graph construction with and without
 * input dependences (the analysis-time component of the saving).
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include "deps/analyzer.hh"
#include "support/thread_pool.hh"
#include "workloads/corpus.hh"

namespace
{

const std::vector<ujam::CorpusRoutine> &
corpus()
{
    static const std::vector<ujam::CorpusRoutine> instance =
        ujam::generateCorpus();
    return instance;
}

void
printTable1()
{
    using namespace ujam;
    // The census fans out one routine per core; the statistics are
    // bit-identical to a serial run (see DESIGN.md, threading model).
    CorpusStats stats = analyzeCorpus(corpus(), 0);

    std::printf("\n=== Table 1: Percentage of Input Dependences ===\n\n");
    std::printf("(census analyzed with %zu threads)\n",
                defaultThreads());
    std::printf("%-12s %s\n", "Range", "Number of Routines");
    for (std::size_t b = 0; b < stats.histogram.size(); ++b) {
        std::printf("%-12s %zu\n", corpusBucketLabels()[b].c_str(),
                    stats.histogram[b]);
    }

    std::printf("\n--- section 5.1 aggregates ---\n");
    std::printf("routines analyzed:            %zu\n",
                stats.routinesTotal);
    std::printf("routines with dependences:    %zu\n",
                stats.routinesWithDeps);
    std::printf("total dependences:            %zu\n", stats.totalDeps);
    std::printf("total input dependences:      %zu  (%.1f%%; paper: "
                "84%%)\n",
                stats.totalInputDeps, stats.totalInputPercent());
    std::printf("mean input share per routine: %.1f%%  (paper: "
                "55.7%%)\n",
                stats.meanInputPercent);
    std::printf("std deviation of that share:  %.1f   (paper: 33.6)\n",
                stats.stddevInputPercent);
    std::printf("mean input deps per routine:  %.0f   (paper: 398)\n",
                stats.meanInputCount);
    std::printf("graph storage, full:          %zu bytes\n",
                stats.graphBytes);
    std::printf("graph storage, no input deps: %zu bytes  (%.1f%% "
                "saved)\n",
                stats.graphBytesNoInput,
                100.0 * (1.0 - static_cast<double>(
                                   stats.graphBytesNoInput) /
                                   static_cast<double>(
                                       stats.graphBytes)));
}

void
BM_AnalyzeWithInputDeps(benchmark::State &state)
{
    using namespace ujam;
    const auto &routines = corpus();
    for (auto _ : state) {
        std::size_t edges = 0;
        for (std::size_t r = 0; r < 64; ++r) {
            for (const LoopNest &nest : routines[r].nests)
                edges += analyzeDependences(nest, DepOptions{true}).size();
        }
        benchmark::DoNotOptimize(edges);
    }
}
BENCHMARK(BM_AnalyzeWithInputDeps);

void
BM_AnalyzeWithoutInputDeps(benchmark::State &state)
{
    using namespace ujam;
    const auto &routines = corpus();
    for (auto _ : state) {
        std::size_t edges = 0;
        for (std::size_t r = 0; r < 64; ++r) {
            for (const LoopNest &nest : routines[r].nests)
                edges +=
                    analyzeDependences(nest, DepOptions{false}).size();
        }
        benchmark::DoNotOptimize(edges);
    }
}
BENCHMARK(BM_AnalyzeWithoutInputDeps);

} // namespace

int
main(int argc, char **argv)
{
    printTable1();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
