/**
 * @file
 * ujam_perfbench: the repository's benchmark.
 *
 *     ujam_perfbench --workload serve_cold|sweep_verify
 *                    --seed N --seconds S --trace 0|1
 *                    --serve-bin PATH --sweep-bin PATH --work-dir DIR
 *                    [--commit SHA] [--dirty 0|1]
 *     ujam_perfbench --dump-inputs --seed N
 *
 * Workloads (closed loop):
 *  - serve_cold: distinct generated programs sent to a supervised
 *    `ujam-serve --workers 2` over two connections; every response is
 *    a cache write, never a read.
 *  - sweep_verify: whole passes of the sweep runner's jobs (default
 *    grids, two machines, seeds {2s, 2s+1}) with the oracle on, two
 *    jobs at a time.
 *
 * A run is cut into slices -- equal stretches of time for serve_cold,
 * whole passes for sweep_verify -- and every timing metric is the
 * median over the slices, so a short disturbance of the machine moves
 * one slice, not the result.
 *
 * With --trace 0 it prints the end-to-end metrics; with --trace 1 it
 * runs the same measurement and then the traced in-process replay
 * (traced.hh) and prints the per-layer metrics. The last stdout line
 * is the result object; the line before it is the host block. Every
 * output is checked against a reference that is not the optimizer:
 * optimize responses are differentially executed against their
 * source, and sweep rows must be validator-, truth- and
 * rollback-clean, every pass rendering the same document, with the
 * seed-0 document equal to the committed BENCH_SWEEP.json.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "codegen/c_emitter.hh"
#include "driver/oracle.hh"
#include "ir/printer.hh"
#include "inputs.hh"
#include "parser/parser.hh"
#include "serve_load.hh"
#include "service/client.hh"
#include "support/diagnostics.hh"
#include "support/json.hh"
#include "support/thread_pool.hh"
#include "support/timing.hh"
#include "traced.hh"

namespace fs = std::filesystem;
using namespace perfbench;

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string serveBin;
    std::string sweepBin;
    std::string workDir = ".bench_build/perfbench-run";
    std::string commit = "unknown";
    std::string dirty = "unknown";
    bool dumpInputs = false;
};

/** What one run reports. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::tuple<std::string, double, std::string>> metrics;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.emplace_back(name, value, unit);
    }
};

double
nowSeconds()
{
    return ujam::monotonicSeconds();
}

double
cpuSeconds(int who)
{
    rusage usage{};
    ::getrusage(who, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
               1e6;
}

double
median(std::vector<double> values)
{
    return values.empty() ? 0 : ujam::medianOf(std::move(values));
}

/** Nearest-rank percentile of already-sorted samples. */
double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) -
                  1];
}

/** Time slices a serve_cold window is cut into. */
constexpr int kSlices = 10;

/** One slice of a measured window. */
struct Slice
{
    double seconds = 0;              //!< wall length
    double cpuSeconds = 0;           //!< CPU of the system under test
    double ok = 0;                   //!< operations ok and checked
    std::vector<double> latenciesMs; //!< every operation that ended in it
};

/**
 * Throughput, latency percentiles and CPU per operation, each the
 * median of its per-slice values.
 */
void
addSliceMetrics(Report &report, std::vector<Slice> slices)
{
    std::vector<double> throughput, p50, p99, cpu;
    for (Slice &slice : slices) {
        if (slice.latenciesMs.empty())
            continue;
        std::sort(slice.latenciesMs.begin(), slice.latenciesMs.end());
        throughput.push_back(slice.ok / slice.seconds);
        p50.push_back(percentile(slice.latenciesMs, 0.50));
        p99.push_back(percentile(slice.latenciesMs, 0.99));
        cpu.push_back(slice.cpuSeconds * 1000.0 / std::max(slice.ok, 1.0));
    }
    report.add("throughput_ops_s", median(throughput), "1/s");
    report.add("latency_p50_ms", median(p50), "ms");
    report.add("latency_p99_ms", median(p99), "ms");
    report.add("cpu_ms_per_op", median(cpu), "ms");
}

// --- Output checks ----------------------------------------------------------

const ujam::JsonValue *
okResult(const ujam::JsonParseResult &parsed)
{
    if (!parsed.ok() || !parsed.value->isObject())
        return nullptr;
    const ujam::JsonValue *status = parsed.value->find("status");
    if (!status || !status->isString() || status->stringValue != "ok")
        return nullptr;
    const ujam::JsonValue *result = parsed.value->find("result");
    return result && result->isObject() ? result : nullptr;
}

/** Findings must add up and point inside the source text. */
bool
lintConsistent(const ujam::JsonValue &lint, const std::string &source)
{
    const ujam::JsonValue *diags = lint.find("diagnostics");
    if (!diags || !diags->isArray())
        return false;
    double counted = 0;
    for (const char *key : {"errors", "warnings", "notes"}) {
        const ujam::JsonValue *count = lint.find(key);
        if (!count || !count->isNumber())
            return false;
        counted += count->numberValue;
    }
    if (counted != static_cast<double>(diags->elements.size()))
        return false;
    double lines = static_cast<double>(
        std::count(source.begin(), source.end(), '\n') + 1);
    for (const ujam::JsonValue &diag : diags->elements) {
        const ujam::JsonValue *line = diag.find("line");
        if (line && (!line->isNumber() || line->numberValue < 1 ||
                     line->numberValue > lines))
            return false;
    }
    return true;
}

/**
 * The printer puts a nest's preheader ("pre ...") lines before the
 * innermost `do`, where the parser does not yet know that loop's
 * variable; the parser also accepts them right after the innermost
 * `do`, in the same preheader. Move them there so the returned program
 * can be read back (the caller checks it renders to the same text).
 */
std::string
reparsable(const std::string &text)
{
    std::string out, pending, line;
    std::istringstream in(text);
    while (std::getline(in, line)) {
        std::size_t first = line.find_first_not_of(' ');
        std::string word =
            first == std::string::npos ? "" : line.substr(first, 4);
        if (word == "pre ") {
            pending += line + "\n";
            continue;
        }
        out += line + "\n";
        if (word.rfind("do ", 0) == 0) {
            out += pending;
            pending.clear();
        }
    }
    return out + pending;
}

/**
 * @return "" when `response` is an ok answer to `request` that agrees
 * with an independent reference, else what failed: optimize -> the
 * returned program computes what the source computes (interpreter, at
 * the tolerance the pipeline uses for reordering stages); codegen ->
 * the original unit equals a fresh emission of the source; lint ->
 * findings add up and point into the source.
 */
std::string
responseProblem(const ServeRequest &request, const std::string &response)
{
    ujam::JsonParseResult parsed = ujam::parseJson(response);
    const ujam::JsonValue *result = okResult(parsed);
    if (!result)
        return "not an ok response";
    try {
        if (request.op == "optimize" || request.op == "lint") {
            const ujam::JsonValue *lint = result->find("lint");
            if (!lint || !lintConsistent(*lint, request.source))
                return "inconsistent lint findings";
            if (request.op == "lint")
                return "";
            const ujam::JsonValue *text = result->find("program");
            if (!text || !text->isString())
                return "no program";
            ujam::Program before =
                ujam::parseProgram(request.source, "<request>");
            ujam::Program after =
                ujam::parseProgram(reparsable(text->stringValue));
            // The IR under test must be exactly what was returned.
            if (ujam::renderProgram(after) != text->stringValue)
                return "returned program does not round-trip";
            ujam::OracleConfig oracle;
            oracle.tolerance = ujam::SafetyConfig{}.tolerance;
            ujam::OracleVerdict verdict =
                ujam::verifyPrograms(before, after, false, oracle);
            return verdict.ok ? "" : "oracle: " + verdict.mismatch;
        }
        if (request.op == "codegen") {
            const ujam::JsonValue *original = result->find("original_c");
            const ujam::JsonValue *transformed =
                result->find("transformed_c");
            if (!original || !original->isString() || !transformed ||
                !transformed->isString() || transformed->stringValue.empty())
                return "missing C units";
            ujam::CodegenOptions emit;
            emit.variantLabel = "original";
            std::string expected =
                ujam::emitCProgram(
                    ujam::parseProgram(request.source, "<request>"), emit)
                    .source;
            return original->stringValue == expected
                       ? ""
                       : "original unit differs from a fresh emission";
        }
    } catch (const std::exception &err) {
        return err.what();
    }
    return "unknown op";
}

/** @return True when the response passes; reports the first failures. */
bool
checkResponse(const ServeRequest &request, const std::string &response)
{
    std::string problem = responseProblem(request, response);
    if (problem.empty())
        return true;
    static std::atomic<int> reported{0};
    if (reported.fetch_add(1) < 5)
        std::fprintf(stderr, "perfbench: check failed (%s): %.200s\n",
                     problem.c_str(), request.frame.c_str());
    return false;
}

// --- Service plumbing --------------------------------------------------------

std::unique_ptr<ServiceProcess>
launchService(const Options &options, int rep)
{
    return std::make_unique<ServiceProcess>(
        options.serveBin,
        options.workDir + "/s" + std::to_string(rep) + ".sock",
        options.workDir + "/serve.log");
}

/** One completed request of the measured window. */
struct Sample
{
    std::uint64_t index = 0;
    int connection = 0;
    double latencyMs = 0;
    double doneSeconds = 0; //!< since the window opened
    bool ok = false;
};

/** The measured window plus what the traced pass needs from it. */
struct ServeWindow
{
    std::vector<Sample> samples; //!< sorted by index after the run
    /** Slice boundaries: seconds since the window opened, and the
     * service's CPU seconds read at that moment. */
    std::vector<std::pair<double, double>> marks;
    double peakRssMb = 0;
    std::vector<double> setupSeconds;
    double forcedShutdowns = 0;
};

/**
 * Launch `reps` instances (set-up = launch until a ping is answered),
 * keep the last, measure it for the run's seconds and tear it down.
 */
ServeWindow
measureService(const Options &options, int reps,
               const std::function<std::string(std::uint64_t)> &frame,
               const std::function<void(ClientSample &)> &handle)
{
    ServeWindow window;
    std::unique_ptr<ServiceProcess> service;
    for (int rep = 0; rep < reps; ++rep) {
        service = launchService(options, rep);
        double start = nowSeconds();
        if (!service->start())
            ujam::fatal("ujam-serve did not come up (see ",
                        options.workDir, "/serve.log)");
        window.setupSeconds.push_back(nowSeconds() - start);
        if (rep + 1 < reps)
            window.forcedShutdowns += service->stop();
    }

    // The service's CPU time is read at every slice boundary while the
    // clients run.
    double opened = nowSeconds();
    std::thread monitor([&] {
        for (int k = 0; k <= kSlices; ++k) {
            std::this_thread::sleep_for(std::chrono::duration<double>(
                opened + k * options.seconds / kSlices - nowSeconds()));
            double cpu = service->cpuSeconds();
            window.marks.emplace_back(nowSeconds() - opened, cpu);
        }
    });
    std::mutex mutex;
    runClosedLoop(service->socket(), 2, options.seconds, frame,
                  [&](ClientSample &sample) {
                      Sample kept;
                      kept.index = sample.index;
                      kept.connection = sample.connection;
                      kept.latencyMs = sample.latencyMs;
                      kept.doneSeconds = nowSeconds() - opened;
                      handle(sample);
                      std::lock_guard<std::mutex> lock(mutex);
                      window.samples.push_back(kept);
                  });
    monitor.join();
    window.peakRssMb = service->peakRssMb();

    // Teardown is outside the timed window; a forced kill is counted
    // as a layer event, never as a failed operation.
    window.forcedShutdowns += service->stop();
    std::sort(window.samples.begin(), window.samples.end(),
              [](const Sample &a, const Sample &b) {
                  return a.index < b.index;
              });
    return window;
}

/** The window's slices; requests that ended after it closed are left out. */
std::vector<Slice>
serveSlices(const ServeWindow &window)
{
    const auto &marks = window.marks;
    std::vector<Slice> slices(marks.size() - 1);
    for (std::size_t k = 0; k < slices.size(); ++k) {
        slices[k].seconds = marks[k + 1].first - marks[k].first;
        slices[k].cpuSeconds = marks[k + 1].second - marks[k].second;
    }
    for (const Sample &sample : window.samples) {
        auto after = std::upper_bound(
            marks.begin(), marks.end(), sample.doneSeconds,
            [](double t, const auto &mark) { return t < mark.first; });
        if (after == marks.begin() || after == marks.end())
            continue;
        Slice &slice = slices[after - marks.begin() - 1];
        slice.latenciesMs.push_back(sample.latencyMs);
        slice.ok += sample.ok;
    }
    return slices;
}

// --- Per-layer metrics ---------------------------------------------------------

/** Public functions timed by the traced pass (metric = name + "_us"). */
const char *const kSpanMetrics[] = {
    "service.parse_request", "service.cache_key",
    "service.cache_get",     "service.cache_put",
    "service.respond",       "parser.parse",
    "deps.analyze",          "deps.safe_bounds",
    "reuse.ugs",             "reuse.group_sets",
    "reuse.rank",            "core.tables",
    "core.rrs",              "core.register_table",
    "core.search",           "core.choose",
    "transform.normalize",   "transform.unroll_jam",
    "transform.scalar_replace", "ir.validate",
    "ir.canonical",          "analysis.lint",
    "codegen.emit",          "report.render",
    "driver.oracle",         "sim.simulate",
    "tune.tune",             "scenarios.generate",
    "scenarios.truth"};

/** Layer groups the self-time shares are reported for. */
const char *const kLayerGroups[] = {
    "service", "parser",  "ir",      "deps",   "reuse",
    "core",    "transform", "analysis", "codegen", "report",
    "driver",  "oracle",  "sim",     "tune",   "scenarios"};

/**
 * Every per-layer metric from one finished trace. Function metrics
 * are mean self microseconds per operation, except driver.pipeline_us,
 * which is inclusive (driver.pipeline_self_us is its self time).
 */
void
addTraceMetrics(Report &report, const Tracer &tracer,
                const TraceCounts &counts, double untraced_ms,
                const Options &options)
{
    TraceSummary summary = summarize(tracer);
    double ops = std::max(summary.ops, 1.0);
    auto lookup = [](const std::map<std::string, double> &table,
                     const std::string &key) {
        auto it = table.find(key);
        return it == table.end() ? 0.0 : it->second;
    };
    for (const char *name : kSpanMetrics)
        report.add(std::string(name) + "_us",
                   lookup(summary.selfUs, name), "us");
    report.add("driver.pipeline_us",
               lookup(summary.totalUs, "driver.pipeline"), "us");
    report.add("driver.pipeline_self_us",
               lookup(summary.selfUs, "driver.pipeline"), "us");
    report.add("deps.edges", counts.depEdges / ops, "count");
    report.add("core.points", counts.searchedPoints / ops, "count");
    report.add("analysis.findings", counts.findings / ops, "count");
    report.add("tune.candidates", counts.tuneCandidates / ops, "count");
    report.add("driver.rollback_ratio",
               counts.stagesRun > 0 ? counts.contained / counts.stagesRun
                                    : 0,
               "fraction");
    for (const char *group : kLayerGroups)
        report.add(std::string("share.") + group,
                   lookup(summary.share, group), "fraction");
    for (const char *group : kLayerGroups)
        report.add(std::string("share_tail.") + group,
                   lookup(summary.tailShare, group), "fraction");
    report.add("trace.ops", summary.ops, "count");
    report.add("trace.coverage", summary.coverage, "fraction");
    report.add("trace.op_us", summary.wallMs * 1000.0 / ops, "us");
    report.add("trace.untraced_op_us", untraced_ms * 1000.0 / ops, "us");

    std::string path = ".bench_build/perfbench-trace/" + options.workload +
                       "-" + std::to_string(options.seed) + ".ndjson";
    fs::create_directories(fs::path(path).parent_path());
    if (!tracer.write(path))
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

// --- Traced pass for serve_cold -------------------------------------------------

/**
 * Replay the first frames of the window in-process twice -- through
 * UjamServer::processLine (untraced) and along the traced request
 * path -- each on fresh in-memory caches, one per worker.
 */
void
traceService(const Options &options, Report &report,
             const ServeWindow &window,
             const std::function<std::string(std::uint64_t)> &frame,
             std::size_t cap)
{
    std::size_t n = std::min(window.samples.size(), cap);
    std::vector<std::string> frames(n);
    for (std::size_t i = 0; i < n; ++i)
        frames[i] = frame(window.samples[i].index);

    std::vector<std::unique_ptr<ujam::UjamServer>> servers;
    for (int w = 0; w < 2; ++w) {
        ujam::ServerConfig config;
        config.threads = 1;
        servers.push_back(std::make_unique<ujam::UjamServer>(config));
    }
    std::vector<double> untraced_ms(n);
    std::vector<std::size_t> untraced_hash(n);
    double untraced_wall = 0;
    for (std::size_t i = 0; i < n; ++i) {
        double start = nowSeconds();
        std::string response =
            servers[window.samples[i].connection % 2]->processLine(frames[i]);
        untraced_ms[i] = (nowSeconds() - start) * 1000.0;
        untraced_wall += untraced_ms[i];
        untraced_hash[i] = std::hash<std::string>{}(response);
    }
    servers.clear();

    ServiceReplay replay(2);
    Tracer tracer;
    TraceCounts counts;
    std::uint64_t drift = 0;
    for (std::size_t i = 0; i < n; ++i) {
        tracer.beginOp(static_cast<std::uint32_t>(i), "op");
        std::string response = replay.process(
            &tracer, frames[i], window.samples[i].connection % 2, counts);
        tracer.endOp();
        drift += std::hash<std::string>{}(response) != untraced_hash[i];
    }

    // The replay must answer exactly what the server answers.
    report.attempted += n;
    report.failed += drift;

    double overhead_ms = 0;
    for (std::size_t i = 0; i < n; ++i)
        overhead_ms += window.samples[i].latencyMs - untraced_ms[i];
    report.add("service.frame_overhead_us",
               n ? overhead_ms * 1000.0 / static_cast<double>(n) : 0, "us");
    report.add("service.forced_shutdowns", window.forcedShutdowns, "count");
    addTraceMetrics(report, tracer, counts, untraced_wall, options);
}

// --- Workloads -------------------------------------------------------------------

constexpr std::size_t kColdTraceOps = 1500;

Report
runServeCold(const Options &options)
{
    Report report;
    auto frame = [&](std::uint64_t i) {
        return coldRequest(options.seed, i).frame;
    };
    std::vector<std::string> responses;
    std::mutex mutex;
    // Responses are kept (by index) and checked after teardown.
    ServeWindow window =
        measureService(options, 5, frame, [&](ClientSample &sample) {
            std::lock_guard<std::mutex> lock(mutex);
            if (responses.size() <= sample.index)
                responses.resize(sample.index + 1);
            responses[sample.index] = std::move(sample.response);
        });

    std::size_t n = window.samples.size();
    std::vector<char> ok(n, 0);
    ujam::parallelFor(n, 4, [&](std::size_t k) {
        const Sample &sample = window.samples[k];
        ok[k] = checkResponse(coldRequest(options.seed, sample.index),
                              responses[sample.index]);
    });
    report.attempted = n;
    for (std::size_t k = 0; k < n; ++k) {
        window.samples[k].ok = ok[k];
        report.failed += !ok[k];
    }
    if (options.trace) {
        traceService(options, report, window, frame, kColdTraceOps);
        return report;
    }
    addSliceMetrics(report, serveSlices(window));
    report.add("peak_rss_mb", window.peakRssMb, "MiB");
    report.add("setup_s", median(window.setupSeconds), "s");
    return report;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

Report
runSweepVerify(const Options &options)
{
    Report report;
    ujam::SweepManifest manifest = sweepManifest(options.seed);
    std::string manifest_text = renderManifest(manifest);

    // Set-up: the sweep CLI launched up to its first job (process
    // start, static initialisation, manifest rendering), then the
    // manifest text parsed and expanded into the per-job work list.
    std::vector<double> setup;
    std::vector<SweepJob> jobs;
    std::vector<ujam::SweepManifest> singles;
    for (int rep = 0; rep < 41; ++rep) {
        double start = nowSeconds();
        if (runToExit({options.sweepBin, "--print-manifest"}) != 0)
            ujam::fatal("cannot run ", options.sweepBin);
        std::string error;
        std::optional<ujam::SweepManifest> parsed =
            ujam::parseSweepManifest(manifest_text, &error);
        if (!parsed)
            ujam::fatal("sweep manifest: ", error);
        jobs = sweepJobs(*parsed);
        singles.clear();
        for (const SweepJob &job : jobs)
            singles.push_back(singleJobManifest(*parsed, job));
        setup.push_back(nowSeconds() - start);
    }

    // Whole passes until the run's time is up. Two callers pull a
    // pass's jobs from one counter and the pass ends when both are
    // done, as a sweep does; each pass is one slice.
    const std::size_t per_pass = jobs.size();
    const std::string committed = readFile("BENCH_SWEEP.json");
    std::string first_document;
    std::vector<Slice> slices;
    double stop_at = nowSeconds() + options.seconds;
    while (slices.empty() || nowSeconds() < stop_at) {
        Slice slice;
        slice.latenciesMs.resize(per_pass);
        std::vector<ujam::SweepRow> rows(per_pass);
        std::atomic<std::size_t> next{0};
        double cpu_before = cpuSeconds(RUSAGE_SELF);
        double start = nowSeconds();
        auto caller = [&] {
            for (std::size_t j; (j = next.fetch_add(1)) < per_pass;) {
                double sent = nowSeconds();
                ujam::SweepResult result = ujam::runSweep(singles[j], 1);
                slice.latenciesMs[j] = (nowSeconds() - sent) * 1000.0;
                rows[j] = std::move(result.rows.front());
            }
        };
        std::thread other(caller);
        caller();
        other.join();
        slice.seconds = nowSeconds() - start;
        slice.cpuSeconds = cpuSeconds(RUSAGE_SELF) - cpu_before;

        ujam::SweepResult result;
        result.oracle = manifest.oracle;
        for (ujam::SweepRow &row : rows) {
            bool clean = row.validatorOk && row.truthOk && row.rollbacks == 0;
            ++report.attempted;
            slice.ok += clean;
            report.failed += !clean;
            result.rows.push_back(std::move(row));
        }
        std::string document = ujam::sweepResultJson(result, 1) + "\n";
        if (first_document.empty()) {
            first_document = document;
            // The seed-0 sweep is the committed artifact, byte for byte.
            report.failed += options.seed == 0 && document != committed;
        } else {
            report.failed += document != first_document; // bit-identical
        }
        slices.push_back(std::move(slice));
    }

    if (!options.trace) {
        addSliceMetrics(report, std::move(slices));
        rusage usage{};
        ::getrusage(RUSAGE_SELF, &usage);
        report.add("peak_rss_mb",
                   static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB");
        report.add("setup_s", median(setup), "s");
        return report;
    }

    // Traced pass: one serial sweep untraced (runSweep itself), then
    // the same jobs replayed with spans; the picks must agree.
    double untraced_start = nowSeconds();
    ujam::SweepResult untraced = ujam::runSweep(manifest, 1);
    double untraced_ms = (nowSeconds() - untraced_start) * 1000.0;
    Tracer tracer;
    TraceCounts counts;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        tracer.beginOp(static_cast<std::uint32_t>(j), "op");
        JobReplay replay =
            replaySweepJob(&tracer, jobs[j], manifest, counts);
        tracer.endOp();
        const ujam::SweepRow &row = untraced.rows[j];
        ++report.attempted;
        report.failed += replay.modelPick != row.modelPick ||
                         replay.tunerPick != row.tunerPick ||
                         replay.rollbacks != row.rollbacks;
    }
    report.add("service.frame_overhead_us", 0, "us");
    report.add("service.forced_shutdowns", 0, "count");
    addTraceMetrics(report, tracer, counts, untraced_ms, options);
    return report;
}

// --- Host block, input dump, entry ---------------------------------------------

/** @return Why this build must not report numbers, or "". */
std::string
unfitBuild()
{
    std::string type = UJAM_PERFBENCH_BUILD_TYPE;
    std::string flags = UJAM_PERFBENCH_CXX_FLAGS;
    if (type != "Release" && type != "RelWithDebInfo")
        return "build type '" + type + "' (need Release or RelWithDebInfo)";
    if (flags.find("sanitize") != std::string::npos)
        return "sanitizer build (" + flags + ")";
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) ||           \
    defined(__SANITIZE_THREAD__)
    return "unoptimized or sanitizer build";
#endif
    return "";
}

std::string
hostBlock(const Options &options)
{
    ujam::JsonWriter w;
    w.beginObject();
    w.key("host").beginObject();
    w.field("nproc", static_cast<std::int64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
    w.field("compiler", std::string("g++ ") + __VERSION__);
    w.field("build_type", UJAM_PERFBENCH_BUILD_TYPE);
    w.field("commit", options.commit);
    w.field("dirty", options.dirty);
    w.field("workload", options.workload);
    w.field("seed", options.seed);
    w.field("seconds", options.seconds);
    w.field("trace", options.trace);
    w.endObject();
    w.endObject();
    return w.str();
}

void
dumpInputs(std::uint64_t seed)
{
    for (std::uint64_t i = 0; i < 64; ++i)
        std::printf("cold %s\n", coldRequest(seed, i).frame.c_str());
    ujam::SweepManifest manifest = sweepManifest(seed);
    std::printf("manifest %s\n", renderManifest(manifest).c_str());
    for (const SweepJob &job : sweepJobs(manifest))
        std::printf("job %s %s\n", job.spec.toString().c_str(),
                    job.machine.c_str());
}

std::string
printResult(const Report &report)
{
    ujam::JsonWriter w;
    w.beginObject();
    w.field("correct", report.failed == 0);
    w.field("attempted", report.attempted);
    w.field("failed", report.failed);
    w.key("metrics").beginObject();
    for (const auto &[name, value, unit] : report.metrics) {
        w.key(name).beginObject();
        w.field("value", value);
        w.field("unit", unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return w.str();
}

bool
parseOptions(int argc, char **argv, Options &options)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (arg == "--workload")
            options.workload = value();
        else if (arg == "--seed")
            options.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            options.seconds = std::atof(value().c_str());
        else if (arg == "--trace")
            options.trace = value() == "1";
        else if (arg == "--serve-bin")
            options.serveBin = value();
        else if (arg == "--sweep-bin")
            options.sweepBin = value();
        else if (arg == "--work-dir")
            options.workDir = value();
        else if (arg == "--commit")
            options.commit = value();
        else if (arg == "--dirty")
            options.dirty = value();
        else if (arg == "--dump-inputs")
            options.dumpInputs = true;
        else
            return false;
    }
    return options.dumpInputs || options.seconds > 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    if (!parseOptions(argc, argv, options)) {
        std::fprintf(stderr,
                     "usage: ujam_perfbench --workload W --seed N "
                     "--seconds S --trace 0|1 --serve-bin PATH "
                     "--sweep-bin PATH [--work-dir DIR] [--commit SHA] "
                     "[--dirty 0|1]\n"
                     "       ujam_perfbench --dump-inputs --seed N\n");
        return 2;
    }
    if (options.dumpInputs) {
        dumpInputs(options.seed);
        return 0;
    }
    std::string unfit = unfitBuild();
    if (!unfit.empty()) {
        std::fprintf(stderr, "perfbench: refusing to report from a %s\n",
                     unfit.c_str());
        return 3;
    }
    becomeSubreaper();
    try {
        fs::create_directories(options.workDir);
        Report report;
        if (options.workload == "serve_cold")
            report = runServeCold(options);
            else if (options.workload == "sweep_verify")
            report = runSweepVerify(options);
        else {
            std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                         options.workload.c_str());
            return 2;
        }
        fs::remove_all(options.workDir);
        std::printf("%s\n%s\n", hostBlock(options).c_str(),
                    printResult(report).c_str());
    } catch (const std::exception &err) {
        std::fprintf(stderr, "perfbench: %s\n", err.what());
        return 1;
    }
    return 0;
}
