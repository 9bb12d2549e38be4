/**
 * @file
 * Scaling benchmark for the parallel pipeline and the
 * allocation-free table kernels.
 *
 * Three sections, emitted as one JSON document -- on stdout and as
 * BENCH_SCALING.json in the repository root -- so future PRs can
 * track the trajectory mechanically:
 *
 *   - corpus_census:   per-routine dependence analysis of the
 *                      1187-routine Table-1 corpus, serial vs. 2/4/N
 *                      threads (identical statistics at every width).
 *   - suite_pipeline:  optimizeProgram over the 19 Table-2 loops,
 *                      serial vs. parallel per-nest fan-out.
 *   - table_build:     buildNestTables wall time vs. unroll-space
 *                      size on the deepest suite nest (two unrolled
 *                      dims) and on a 4-deep nest (three), which
 *                      tracks how the register table's row sweep
 *                      grows with points.
 *
 * Every section reports the median of repeated runs.
 */

#include <cstdio>
#include <functional>
#include <vector>

#include "bench_json.hh"
#include "core/tables.hh"
#include "driver/driver.hh"
#include "parser/parser.hh"
#include "support/json.hh"
#include "support/thread_pool.hh"
#include "support/timing.hh"
#include "workloads/corpus.hh"
#include "workloads/suite.hh"

namespace
{

using namespace ujam;

double
medianSeconds(int reps, const std::function<void()> &work)
{
    return measureSeconds(work, reps).medianSeconds;
}

Program
wholeSuiteProgram()
{
    Program all;
    for (const SuiteLoop &loop : testSuite()) {
        Program one = loadSuiteProgram(loop);
        for (const ArrayDecl &decl : one.arrays())
            all.declareArray(decl);
        for (const LoopNest &nest : one.nests())
            all.addNest(nest);
    }
    return all;
}

} // namespace

int
main()
{
    const std::size_t hw = defaultThreads();
    std::vector<std::size_t> widths = {1, 2, 4, hw};
    std::sort(widths.begin(), widths.end());
    widths.erase(std::unique(widths.begin(), widths.end()),
                 widths.end());
    const int reps = 5;

    JsonWriter json(2);
    json.beginObject();
    json.field("hardware_threads", std::uint64_t(hw));

    // --- corpus census ---------------------------------------------------
    {
        CorpusConfig config; // full 1187 routines
        config.threads = 1;
        auto corpus = generateCorpus(config);
        json.key("corpus_census").beginObject();
        json.field("routines", std::uint64_t(corpus.size()));
        double serial = 0.0;
        for (std::size_t threads : widths) {
            double t = medianSeconds(reps, [&] {
                CorpusStats stats = analyzeCorpus(corpus, threads);
                if (stats.totalDeps == 0)
                    std::fprintf(stderr, "unexpected empty census\n");
            });
            if (threads == 1)
                serial = t;
            json.key("threads_" + std::to_string(threads) +
                     "_seconds");
            json.valueFixed(t, 6);
        }
        json.key("serial_seconds").valueFixed(serial, 6);
        double t4 = medianSeconds(
            reps, [&] { (void)analyzeCorpus(corpus, 4); });
        json.key("speedup_at_4_threads").valueFixed(serial / t4, 2);
        json.endObject();
    }

    // --- suite pipeline --------------------------------------------------
    {
        Program program = wholeSuiteProgram();
        MachineModel machine = MachineModel::decAlpha21064();
        json.key("suite_pipeline").beginObject();
        json.field("nests", std::uint64_t(program.nests().size()));
        double serial = 0.0, best = 0.0;
        for (std::size_t threads : widths) {
            PipelineConfig config;
            config.threads = threads;
            double t = medianSeconds(reps, [&] {
                PipelineResult result =
                    optimizeProgram(program, machine, config);
                if (result.outcomes.empty())
                    std::fprintf(stderr, "unexpected empty result\n");
            });
            if (threads == 1)
                serial = t;
            best = (best == 0.0) ? t : std::min(best, t);
            json.key("threads_" + std::to_string(threads) +
                     "_seconds");
            json.valueFixed(t, 6);
        }
        json.key("serial_seconds").valueFixed(serial, 6);
        json.key("best_speedup").valueFixed(serial / best, 2);
        json.endObject();
    }

    // --- table construction vs. unroll-space size ------------------------
    {
        // One row per limit: the space over dims grows as limit^|dims|.
        auto sweep = [&](const LoopNest &nest,
                         const std::vector<std::size_t> &dims,
                         const std::vector<std::int64_t> &limits) {
            Subspace localized =
                Subspace::coordinate(nest.depth(), {nest.depth() - 1});
            json.beginArray();
            for (std::int64_t limit : limits) {
                UnrollSpace space(nest.depth(), dims, limit);
                double t = medianSeconds(3, [&] {
                    NestTables tables =
                        buildNestTables(nest, space, localized);
                    if (tables.perUgs.empty())
                        std::fprintf(stderr, "unexpected empty tables\n");
                });
                json.beginObject();
                json.field("limit", limit);
                json.field("points", std::uint64_t(space.size()));
                json.key("seconds").valueFixed(t, 6);
                json.endObject();
            }
            json.endArray();
        };

        // The deepest suite nest over its two outer loops.
        const LoopNest *deepest = nullptr;
        Program program = wholeSuiteProgram();
        for (const LoopNest &nest : program.nests()) {
            if (!deepest || nest.depth() > deepest->depth())
                deepest = &nest;
        }
        std::vector<std::size_t> dims;
        for (std::size_t k = 0; k + 1 < deepest->depth() && k < 2; ++k)
            dims.push_back(k);

        // A 4-deep nest over its three outer loops, where the register
        // table's rows are slabs of a 2-dim sub-box.
        LoopNest four_deep = parseSingleNest(R"(
do i = 1, 16
  do j = 1, 16
    do k = 1, 16
      do l = 1, 16
        a(i, j, k, l) = b(i, j, k, l) + b(i, j + 1, k, l) + b(i, j, k + 1, l) + b(i, j, k, l + 1)
      end do
    end do
  end do
end do
)");

        json.key("table_build").beginObject();
        json.field("nest_depth", std::uint64_t(deepest->depth()));
        json.key("sweep");
        sweep(*deepest, dims, {4, 8, 16, 32, 64});
        json.key("sweep_3d").beginObject();
        json.field("nest_depth", std::uint64_t(four_deep.depth()));
        json.key("sweep");
        sweep(four_deep, {0, 1, 2}, {4, 8, 16});
        json.endObject();
        json.endObject();
    }

    json.endObject();
    std::printf("%s\n", json.str().c_str());
    writeBenchJson("BENCH_SCALING.json", json.str());
    return 0;
}
