/**
 * @file
 * ujam-serve batch throughput: cold vs. warm result cache.
 *
 * Runs the full 19-loop evaluation suite through UjamServer::runBatch
 * three ways and writes BENCH_SERVE.json:
 *
 *   - cold:      a fresh server and an empty cache directory -- every
 *                request runs the whole pipeline;
 *   - warm:      the same server again -- every request is answered
 *                from the in-memory tier;
 *   - disk_warm: a restarted server on the same cache directory --
 *                every request is answered from the persistent tier.
 *
 * The warm and disk-warm responses are asserted byte-identical to the
 * cold ones (the service's core contract), and the report includes
 * the resulting speedups. Exit status 1 if any response differs or
 * the warm path fails to reach a 5x speedup.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.hh"
#include "service/server.hh"
#include "support/json.hh"
#include "workloads/suite.hh"

namespace
{

using namespace ujam;

std::string
suiteBatchInput()
{
    std::string input;
    for (const SuiteLoop &loop : testSuite()) {
        JsonWriter json;
        json.beginObject();
        json.field("op", "optimize");
        json.field("id", loop.name);
        json.field("source", loop.source);
        json.key("options").beginObject();
        json.field("lint", "warn");
        json.endObject();
        json.endObject();
        input += json.str() + "\n";
    }
    return input;
}

/** @return (seconds, output) for one batch run. */
std::pair<double, std::string>
timedBatch(UjamServer &server, const std::string &input)
{
    std::istringstream in(input);
    std::ostringstream out;
    auto start = std::chrono::steady_clock::now();
    server.runBatch(in, out);
    auto stop = std::chrono::steady_clock::now();
    return {std::chrono::duration<double>(stop - start).count(),
            out.str()};
}

} // namespace

int
main()
{
    std::string cache_dir =
        std::filesystem::temp_directory_path().string() +
        "/ujam-bench-serve-" + std::to_string(getpid());
    std::string input = suiteBatchInput();
    std::size_t requests = testSuite().size();

    ServerConfig config;
    config.cacheDir = cache_dir;
    UjamServer server(std::move(config));

    auto [cold_s, cold_out] = timedBatch(server, input);
    auto [warm_s, warm_out] = timedBatch(server, input);

    ServerConfig restart_config;
    restart_config.cacheDir = cache_dir;
    UjamServer restarted(std::move(restart_config));
    auto [disk_s, disk_out] = timedBatch(restarted, input);

    // Cached per-op latency: one priming pass fills the cache, then
    // the measured passes time each request individually and keep the
    // median (p50). For lint this is the number a lint-on-save editor
    // integration would feel; for tune (model-measured, so
    // deterministic and compiler-free) it is what a re-tune of an
    // unchanged nest costs once memoized.
    auto cached_p50_us = [&](const std::string &op) {
        std::vector<std::string> lines;
        for (const SuiteLoop &loop : testSuite()) {
            JsonWriter json;
            json.beginObject();
            json.field("op", op);
            json.field("id", op + "-" + loop.name);
            json.field("source", loop.source);
            json.key("options").beginObject();
            json.field("lint", "warn");
            json.endObject();
            json.endObject();
            lines.push_back(json.str());
        }
        for (const std::string &line : lines)
            server.processLine(line);
        std::vector<double> micros;
        for (int round = 0; round < 5; ++round) {
            for (const std::string &line : lines) {
                auto sent = std::chrono::steady_clock::now();
                server.processLine(line);
                micros.push_back(
                    std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - sent)
                        .count());
            }
        }
        std::sort(micros.begin(), micros.end());
        return micros.empty() ? 0.0 : micros[micros.size() / 2];
    };
    double lint_cached_p50_us = cached_p50_us("lint");
    double tune_cached_p50_us = cached_p50_us("tune");

    bool identical = warm_out == cold_out && disk_out == cold_out;
    double warm_speedup = warm_s > 0 ? cold_s / warm_s : 0.0;
    double disk_speedup = disk_s > 0 ? cold_s / disk_s : 0.0;

    JsonWriter json(2);
    json.beginObject();
    json.field("requests", std::uint64_t(requests));
    json.key("cold_seconds").valueFixed(cold_s, 6);
    json.key("warm_seconds").valueFixed(warm_s, 6);
    json.key("disk_warm_seconds").valueFixed(disk_s, 6);
    json.key("warm_speedup").valueFixed(warm_speedup, 2);
    json.key("disk_warm_speedup").valueFixed(disk_speedup, 2);
    json.field("responses_identical", identical);
    json.field("memory_hits",
               server.metrics().cacheMemoryHits.get());
    json.field("disk_hits",
               restarted.metrics().cacheDiskHits.get());
    json.key("lint_cached_p50_us").valueFixed(lint_cached_p50_us, 1);
    json.key("tune_cached_p50_us").valueFixed(tune_cached_p50_us, 1);
    json.endObject();

    std::printf("%s\n", json.str().c_str());
    writeBenchJson("BENCH_SERVE.json", json.str());

    std::error_code ec;
    std::filesystem::remove_all(cache_dir, ec);

    if (!identical) {
        std::fprintf(stderr,
                     "FAIL: warm responses differ from cold\n");
        return 1;
    }
    if (warm_speedup < 5.0) {
        std::fprintf(stderr,
                     "FAIL: warm speedup %.2f below 5x target\n",
                     warm_speedup);
        return 1;
    }
    return 0;
}
