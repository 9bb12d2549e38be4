/**
 * @file
 * Tests for the ujam-serve subsystem: the cache key (what is and is
 * not semantic), the two-tier result cache, the NDJSON protocol
 * parser (including a deterministic malformed-input fuzz), batch-mode
 * determinism -- responses bit-identical across thread widths and
 * across hit/miss -- persistence across a server restart, the metrics
 * schema, a socket smoke test with concurrent clients, deadline
 * expiry and graceful shutdown (the TSan target), the non-blocking
 * shared listener that lets supervised workers drain, and threads
 * that accept only when free, so a busy worker strands no client.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "parser/parser.hh"
#include "service/cache.hh"
#include "support/diagnostics.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "support/json.hh"
#include "support/rng.hh"
#include "support/sha256.hh"
#include "workloads/suite.hh"

namespace ujam
{
namespace
{

const char *kSource = R"(
param n = 64
real a(n, n)
real b(n, n)
! nest: sweep
do j = 1, n
  do i = 1, n
    a(i, j) = a(i, j) + b(j, i)
  end do
end do
)";

Program
sourceProgram()
{
    return parseProgram(kSource, "<test>");
}

/**
 * A fresh per-test directory under the gtest temp root. A directory
 * left by an earlier run with the same pid is cleared first, so a
 * test never starts with another run's cache entries.
 */
std::string
scratchDir(const std::string &tag)
{
    std::string dir = testing::TempDir() + "ujam-serve-" + tag + "-" +
                      std::to_string(getpid());
    std::filesystem::remove_all(dir);
    return dir;
}

std::string
requestLine(const std::string &op, const std::string &id,
            const std::string &source,
            const std::string &options_json = "")
{
    JsonWriter json;
    json.beginObject();
    json.field("op", op);
    if (!id.empty())
        json.field("id", id);
    if (!source.empty())
        json.field("source", source);
    if (!options_json.empty())
        json.key("options").rawValue(options_json);
    json.endObject();
    return json.str();
}

std::string
batch(UjamServer &server, const std::string &input)
{
    std::istringstream in(input);
    std::ostringstream out;
    server.runBatch(in, out);
    return out.str();
}

/** @return The member names of a JSON object, in document order. */
std::vector<std::string>
memberNames(const JsonValue &object)
{
    std::vector<std::string> names;
    for (const auto &member : object.members)
        names.push_back(member.first);
    return names;
}

/** @return response.status, or "<unparseable>" on a broken frame. */
std::string
responseStatus(const std::string &frame)
{
    JsonParseResult parsed = parseJson(frame);
    if (!parsed.ok() || !parsed.value->isObject())
        return "<unparseable>";
    const JsonValue *status = parsed.value->find("status");
    return status && status->isString() ? status->stringValue
                                        : "<unparseable>";
}

// --- the cache key --------------------------------------------------

TEST(ServiceCache, KeyChangesWithEverySemanticInput)
{
    Program program = sourceProgram();
    PipelineConfig config;
    MachineModel alpha = MachineModel::decAlpha21064();
    std::string base =
        computeCacheKey("optimize", program, alpha, config);

    std::vector<std::string> keys{base};
    auto vary = [&](auto mutate) {
        PipelineConfig c = config;
        MachineModel m = alpha;
        std::string op = "optimize";
        mutate(c, m, op);
        keys.push_back(computeCacheKey(op, program, m, c));
        EXPECT_NE(keys.back(), base);
    };

    vary([](PipelineConfig &, MachineModel &m, std::string &) {
        m = MachineModel::hpPa7100();
    });
    vary([](PipelineConfig &, MachineModel &m, std::string &) {
        // The preset *definition* is semantic, not just its name.
        m.fpRegisters += 1;
    });
    vary([](PipelineConfig &c, MachineModel &, std::string &) {
        c.lint = LintMode::Strict;
    });
    vary([](PipelineConfig &c, MachineModel &, std::string &) {
        c.lintOptions.maxUnroll += 1;
    });
    vary([](PipelineConfig &c, MachineModel &, std::string &) {
        c.optimizer.maxUnroll += 1;
    });
    vary([](PipelineConfig &c, MachineModel &, std::string &) {
        c.optimizer.depRangePrune = false;
    });
    vary([](PipelineConfig &c, MachineModel &, std::string &) {
        c.prefetch = true;
    });
    vary([](PipelineConfig &c, MachineModel &, std::string &) {
        c.prefetchConfig.distanceIters += 1;
    });
    vary([](PipelineConfig &c, MachineModel &, std::string &) {
        c.safety.oracle = true;
    });
    vary([](PipelineConfig &c, MachineModel &, std::string &) {
        c.safety.faults.push_back(
            parseFaultSpecs("unroll:0:throw").front());
    });
    vary([](PipelineConfig &, MachineModel &, std::string &op) {
        op = "lint";
    });

    // Programs that differ only past a constant's sixth significant
    // digit are different programs.
    for (const char *constant : {"0.1234567", "0.1234568"}) {
        Program scaled = parseProgram(
            concat("real a(10, 10)\nreal b(10, 10)\ndo j = 1, 10\n"
                   "  do i = 1, 10\n    a(i, j) = b(i, j) * ",
                   constant, "\n  end do\nend do\n"),
            "<test>");
        keys.push_back(computeCacheKey("optimize", scaled, alpha, config));
    }

    // All distinct pairwise, not merely distinct from the base.
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(std::unique(keys.begin(), keys.end()), keys.end());

    // The analysis engine's version is part of the hashed text, so a
    // dataflow release invalidates cached findings automatically.
    std::string text = canonicalRequestText("lint", program, alpha,
                                            config, {});
    EXPECT_NE(text.find("analysis.version = "), std::string::npos);
    EXPECT_NE(text.find("optimizer.depRangePrune = "),
              std::string::npos);
}

TEST(ServiceCache, EveryOptionReachesTheKey)
{
    // Requests that differ only in one wire option must hash apart:
    // an option added to the table without a line in the key text
    // would serve stale results.
    Program program = sourceProgram();
    auto key_with = [&](const std::string &name,
                        const std::string &value_json) {
        RequestParse parsed = parseRequest(requestLine(
            "optimize", "", kSource,
            "{\"" + name + "\": " + value_json + "}"));
        EXPECT_TRUE(parsed.ok()) << name << ": " << parsed.error;
        if (!parsed.ok())
            return std::string();
        const ServiceRequest &r = *parsed.request;
        return computeCacheKey("optimize", program, r.machine, r.config,
                               r.codegen, r.tune);
    };

    for (const RequestOption &option : requestOptions()) {
        std::vector<std::string> values;
        switch (option.kind) {
          case OptionKind::Bool:
            values = {"false", "true"};
            break;
          case OptionKind::Int:
            values = {std::to_string(option.lo),
                      std::to_string(option.hi)};
            break;
          case OptionKind::Number:
            values = {"1", "2.5"};
            break;
          case OptionKind::Choice:
            for (const char *choice : option.choices)
                values.push_back(concat("\"", choice, "\""));
            break;
          case OptionKind::Params:
            values = {"{}", "{\"n\": 5}"};
            break;
        }
        std::set<std::string> keys;
        for (const std::string &value : values)
            keys.insert(key_with(option.name, value));
        EXPECT_EQ(keys.size(), values.size()) << option.name;
    }
}

TEST(ServiceCache, ThreadCountExcluded)
{
    Program program = sourceProgram();
    MachineModel alpha = MachineModel::decAlpha21064();
    PipelineConfig config;
    std::string base =
        computeCacheKey("optimize", program, alpha, config);

    for (std::size_t threads : {std::size_t(1), std::size_t(8)}) {
        PipelineConfig c = config;
        c.threads = threads;
        c.optimizer.threads = threads;
        EXPECT_EQ(computeCacheKey("optimize", program, alpha, c),
                  base);
    }
}

TEST(ServiceCache, FormattingInsensitive)
{
    // Same nest, different whitespace and comments: the key hashes
    // the parsed IR, not the source bytes.
    const char *reformatted = R"(
param n = 64


real a(n, n)
real b(n, n)
! nest: sweep
! a scribble that changes nothing
do j = 1, n
    do i = 1, n
      a(i, j)   =   a(i, j) + b(j, i)
    end do
end do
)";
    MachineModel alpha = MachineModel::decAlpha21064();
    PipelineConfig config;
    EXPECT_EQ(computeCacheKey("optimize", sourceProgram(), alpha,
                              config),
              computeCacheKey("optimize",
                              parseProgram(reformatted, "<other>"),
                              alpha, config));
}

// --- the result cache -----------------------------------------------

TEST(ResultCacheTier, LruEvictsTheColdestEntry)
{
    ResultCache cache(2);
    cache.put("k1", "v1");
    cache.put("k2", "v2");
    ASSERT_TRUE(cache.get("k1")); // k1 now warmer than k2
    cache.put("k3", "v3");        // evicts k2

    EXPECT_EQ(cache.memoryEntries(), 2u);
    EXPECT_TRUE(cache.get("k1"));
    EXPECT_FALSE(cache.get("k2"));
    EXPECT_EQ(cache.get("k3").value(), "v3");
}

TEST(ResultCacheTier, DiskSurvivesAndPromotes)
{
    std::string dir = scratchDir("tier");
    {
        ResultCache cache(4, dir);
        cache.put("deadbeef", "payload");
    }
    ResultCache reopened(4, dir);
    CacheTier tier = CacheTier::Miss;
    std::optional<std::string> hit = reopened.get("deadbeef", &tier);
    ASSERT_TRUE(hit);
    EXPECT_EQ(*hit, "payload");
    EXPECT_EQ(tier, CacheTier::Disk);

    // The disk hit was promoted into the memory tier.
    reopened.get("deadbeef", &tier);
    EXPECT_EQ(tier, CacheTier::Memory);
    std::filesystem::remove_all(dir);
}

// --- protocol parsing -----------------------------------------------

TEST(ServiceProtocol, RejectsMalformedRequests)
{
    const char *bad[] = {
        "",
        "not json",
        "[1, 2]",
        "{}",
        "{\"op\": 7}",
        "{\"op\": \"bogus\"}",
        "{\"op\": \"optimize\"}",                    // missing source
        "{\"op\": \"optimize\", \"source\": 3}",
        "{\"op\": \"ping\", \"id\": 5}",
        "{\"op\": \"ping\", \"surprise\": true}",
        "{\"op\": \"optimize\", \"source\": \"x\","
        " \"machine\": \"cray\"}",
        "{\"op\": \"optimize\", \"source\": \"x\","
        " \"options\": {\"max_unroll\": 0}}",
        "{\"op\": \"optimize\", \"source\": \"x\","
        " \"options\": {\"frobnicate\": 1}}",
        // Width is the server's choice, not the request's.
        "{\"op\": \"optimize\", \"source\": \"x\","
        " \"options\": {\"threads\": 3}}",
        "{\"op\": \"optimize\", \"source\": \"x\","
        " \"deadline_ms\": -1}",
    };
    for (const char *line : bad) {
        RequestParse parsed = parseRequest(line);
        EXPECT_FALSE(parsed.ok()) << line;
        EXPECT_FALSE(parsed.error.empty()) << line;
    }
}

TEST(ServiceProtocol, AcceptsTheDocumentedOptions)
{
    RequestParse parsed = parseRequest(
        requestLine("optimize", "r1", kSource,
                    R"({"max_unroll": 6, "lint": "strict",
                        "prefetch": true, "prefetch_distance": 4,
                        "oracle": true})"));
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const ServiceRequest &request = *parsed.request;
    EXPECT_EQ(request.id, "r1");
    EXPECT_EQ(request.config.optimizer.maxUnroll, 6);
    EXPECT_EQ(request.config.lintOptions.maxUnroll, 6);
    EXPECT_EQ(request.config.lint, LintMode::Strict);
    EXPECT_TRUE(request.config.prefetch);
    EXPECT_EQ(request.config.prefetchConfig.distanceIters, 4);
    EXPECT_TRUE(request.config.safety.oracle);
}

TEST(ServiceProtocol, FlagTextMatchesTheWire)
{
    // The CLIs hand flag text to the same entry point the wire uses:
    // equal values set equal requests, and a bad value gets the
    // service's message, whichever way it arrives.
    struct Case
    {
        const char *name;
        const char *json;
        const char *text;
    };
    const Case cases[] = {
        {"max_unroll", "6", "6"},
        {"max_unroll", "0", "0"},
        {"max_unroll", "\"6\"", "abc"},
        {"max_unroll", "6.5", "6x"},
        {"fuse", "true", "true"},
        {"fuse", "1", "yes"},
        {"localized_trip", "2.5", "2.5"},
        {"localized_trip", "-1", "-1"},
        {"lint", "\"strict\"", "strict"},
        {"lint", "\"loud\"", "loud"},
        {"tune_measure", "\"wall\"", "wall"},
        {"seed", "7", "7"},
        {"seed", "-1", "-1"},
        {"params", "{\"n\": -3}", "n=-3"},
        {"params", "{\"n\": \"x\"}", "n=x"},
        {"frobnicate", "1", "1"},
    };
    Program program = sourceProgram();
    auto key = [&](const ServiceRequest &r) {
        return computeCacheKey("optimize", program, {}, r.config,
                               r.codegen, r.tune);
    };
    for (const Case &c : cases) {
        JsonParseResult json = parseJson(c.json);
        ASSERT_TRUE(json.ok()) << c.json;
        ServiceRequest from_json;
        ServiceRequest from_text;
        std::string json_error =
            applyRequestOption(from_json, c.name, *json.value);
        std::string text_error =
            applyRequestOption(from_text, c.name, std::string(c.text));
        EXPECT_EQ(json_error, text_error) << c.name << " " << c.text;
        EXPECT_EQ(key(from_json), key(from_text))
            << c.name << " " << c.text;
    }
    ServiceRequest request;
    EXPECT_EQ(applyRequestOption(request, "params", std::string("n")),
              "option 'params' must be name=value");
}

// --- batch mode -----------------------------------------------------

TEST(ServiceBatch, HitIsByteIdenticalToMiss)
{
    UjamServer server({});
    std::string line = requestLine("optimize", "same", kSource);
    std::string first = batch(server, line + "\n");
    std::string second = batch(server, line + "\n");

    EXPECT_EQ(first, second);
    EXPECT_EQ(server.metrics().cacheMisses.get(), 1u);
    EXPECT_EQ(server.metrics().cacheMemoryHits.get(), 1u);
}

TEST(ServiceBatch, SignOfZeroConstantReachesTheKey)
{
    // 1.0 / (b(i) * -0.0) computes -inf where the 0.0 program computes
    // +inf: the second frame must miss, not be answered from the
    // first's cache entry.
    const std::string body = "real a(8)\nreal b(8)\ndo i = 1, 8\n"
                             "  a(i) = 1.0 / (b(i) * ";
    ServerConfig config;
    config.threads = 1;
    UjamServer server(std::move(config));
    batch(server,
          requestLine("optimize", "zero", body + "0.0)\nend do\n") +
              "\n" +
              requestLine("optimize", "zero", body + "-0.0)\nend do\n") +
              "\n");
    EXPECT_EQ(server.metrics().cacheMemoryHits.get(), 0u);
    EXPECT_EQ(server.metrics().cacheMisses.get(), 2u);
}

TEST(ServiceBatch, LintHitIsByteIdenticalToMiss)
{
    // The lint op rides the same content-addressed cache as
    // optimize/codegen: the second identical request must be a memory
    // hit whose response frame is byte-identical to the computed one.
    UjamServer server({});
    std::string line = requestLine("lint", "lint-same", kSource,
                                   R"({"lint": "warn"})");
    std::string first = batch(server, line + "\n");
    std::string second = batch(server, line + "\n");

    EXPECT_EQ(first, second);
    EXPECT_EQ(server.metrics().cacheMisses.get(), 1u);
    EXPECT_EQ(server.metrics().cacheMemoryHits.get(), 1u);
    EXPECT_EQ(server.metrics().cacheStores.get(), 1u);
    // A different op over the same program must not collide.
    std::string other = batch(
        server, requestLine("optimize", "lint-same", kSource) + "\n");
    EXPECT_EQ(server.metrics().cacheMisses.get(), 2u);
}

TEST(ServiceBatch, OutputInvariantAcrossThreadWidths)
{
    std::string input;
    for (const SuiteLoop &loop : testSuite()) {
        if (loop.number > 6)
            break;
        input += requestLine("optimize", loop.name, loop.source) +
                 "\n";
        input += requestLine("lint", "lint-" + loop.name, loop.source,
                             R"({"lint": "warn"})") +
                 "\n";
    }

    std::string reference;
    for (std::size_t width : {std::size_t(1), std::size_t(2),
                              std::size_t(8)}) {
        ServerConfig config;
        config.threads = width;
        UjamServer server(std::move(config));
        std::string output = batch(server, input);
        if (reference.empty())
            reference = output;
        else
            EXPECT_EQ(output, reference) << "width " << width;
    }
}

TEST(ServiceBatch, PersistentCacheSurvivesRestart)
{
    std::string dir = scratchDir("restart");
    std::string line = requestLine("optimize", "r", kSource);

    std::string cold;
    {
        ServerConfig config;
        config.cacheDir = dir;
        UjamServer server(std::move(config));
        cold = batch(server, line + "\n");
        EXPECT_EQ(server.metrics().cacheStores.get(), 1u);
    }

    ServerConfig config;
    config.cacheDir = dir;
    UjamServer restarted(std::move(config));
    std::string warm = batch(restarted, line + "\n");

    EXPECT_EQ(warm, cold);
    EXPECT_EQ(restarted.metrics().cacheDiskHits.get(), 1u);
    EXPECT_EQ(restarted.metrics().cacheMisses.get(), 0u);
    std::filesystem::remove_all(dir);
}

TEST(ServiceBatch, NoCacheBypassesBothTiers)
{
    UjamServer server({});
    std::string line =
        "{\"op\": \"optimize\", \"no_cache\": true, \"source\": " +
        jsonQuote(kSource) + "}";
    std::string first = batch(server, line + "\n");
    std::string second = batch(server, line + "\n");

    EXPECT_EQ(first, second); // still deterministic, just uncached
    EXPECT_EQ(server.metrics().cacheBypassed.get(), 2u);
    EXPECT_EQ(server.metrics().cacheStores.get(), 0u);
}

TEST(ServiceBatch, ZeroDeadlineTimesOutDeterministically)
{
    UjamServer server({});
    std::string response = server.processLine(
        "{\"op\": \"optimize\", \"deadline_ms\": 0, \"source\": " +
        jsonQuote(kSource) + "}");
    EXPECT_EQ(responseStatus(response), "timeout");
    EXPECT_EQ(server.metrics().requestsTimeout.get(), 1u);
}

// --- metrics --------------------------------------------------------

TEST(ServiceMetricsDoc, StableSchemaAndCumulativeBuckets)
{
    UjamServer server({});
    batch(server, requestLine("optimize", "m", kSource) + "\n");

    JsonParseResult parsed = parseJson(server.metricsSnapshot());
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const JsonValue &root = *parsed.value;
    // The sections and the request fields, in order. A single-process
    // server has no supervisor section (see CacheAndSupervisorSections).
    ASSERT_EQ(memberNames(root),
              (std::vector<std::string>{"requests", "cache", "pipeline",
                                        "tune", "connections",
                                        "latency_us"}));
    for (const auto &section : root.members)
        EXPECT_TRUE(section.second.isObject()) << section.first;
    const JsonValue *requests = root.find("requests");
    EXPECT_EQ(memberNames(*requests),
              (std::vector<std::string>{"total", "ok", "errors",
                                        "malformed", "bad_op",
                                        "bad_field", "timeouts",
                                        "degraded", "by_op"}));
    EXPECT_EQ(memberNames(*requests->find("by_op")),
              (std::vector<std::string>{"optimize", "lint", "codegen",
                                        "tune", "metrics", "ping",
                                        "shutdown"}));
    EXPECT_EQ(requests->find("total")->asInt(), 1);
    EXPECT_EQ(root.find("pipeline")->find("nests_optimized")->asInt(),
              1);

    // Each histogram's cumulative "le" counts must be non-decreasing
    // and end at the observation count.
    const JsonValue *stage = root.find("latency_us")->find("total");
    ASSERT_NE(stage, nullptr);
    const JsonValue *buckets = stage->find("buckets");
    ASSERT_TRUE(buckets && buckets->isArray());
    std::int64_t previous = 0;
    for (const JsonValue &bucket : buckets->elements) {
        std::int64_t count = *bucket.find("count")->asInt();
        EXPECT_GE(count, previous);
        previous = count;
    }
    EXPECT_EQ(previous, *stage->find("count")->asInt());
}

// --- protocol fuzz (ctest -L fuzz-fast) -----------------------------

TEST(ServiceFuzz, BatchParserSurvivesMalformedFrames)
{
    UjamServer server({});
    std::string seed_line = requestLine("optimize", "fuzz", kSource);
    Rng rng(20260806);

    for (int i = 0; i < 400; ++i) {
        std::string line = seed_line;
        switch (rng.range(0, 3)) {
          case 0: // flip random bytes
            for (int n = rng.range(1, 8); n > 0; --n) {
                std::size_t at = rng.range(0, line.size() - 1);
                line[at] = static_cast<char>(rng.range(1, 255));
            }
            break;
          case 1: // truncate
            line.resize(rng.range(0, line.size() - 1));
            break;
          case 2: // splice random JSON-ish fragments
            line.insert(rng.range(0, line.size() - 1),
                        "{\"\\u0000\":[1e309,{}]}");
            break;
          case 3: { // pure garbage
            line.clear();
            for (int n = rng.range(1, 64); n > 0; --n)
                line.push_back(static_cast<char>(rng.range(0, 255)));
            break;
          }
        }
        if (line.empty() || line.find('\n') != std::string::npos)
            continue;
        // Whatever came in, a well-formed response frame comes out.
        std::string response = server.processLine(line);
        EXPECT_NE(responseStatus(response), "<unparseable>")
            << "input: " << line;
    }

    // The split counters cover every rejected *frame*; requestsError
    // additionally counts well-formed frames whose DSL source fails
    // to parse, so the sum is a lower bound, never an overcount.
    const ServiceMetrics &metrics = server.metrics();
    EXPECT_GE(metrics.requestsError.get(),
              metrics.requestsMalformed.get() +
                  metrics.requestsBadOp.get() +
                  metrics.requestsBadField.get());
    EXPECT_GT(metrics.requestsMalformed.get(), 0u);
}

// --- socket mode (the TSan smoke) -----------------------------------

// --- the ujam-serve command line -------------------------------------

/** Run the real ujam-serve on empty stdin; @return exit status. */
int
runServe(const std::string &flags, std::string &output)
{
    std::string command =
        concat(UJAM_SERVE_BIN, " ", flags, " < /dev/null 2>&1");
    FILE *pipe = ::popen(command.c_str(), "r");
    if (!pipe)
        return -1;
    char buffer[256];
    output.clear();
    while (std::fgets(buffer, sizeof(buffer), pipe))
        output += buffer;
    int status = ::pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(ServiceCli, BadNumbersAreUsageErrors)
{
    // Numeric flags are read whole and non-negative: strtoul once
    // turned --threads -1 into ULONG_MAX (threads were created until
    // std::system_error aborted the server) and --workers abc into a
    // silent single process.
    std::string output;
    for (const char *flags : {"--batch --threads -1",
                              "--batch --workers abc",
                              "--batch --cache-mem 12x",
                              "--batch --deadline-ms -5"}) {
        EXPECT_EQ(runServe(flags, output), 2) << flags;
        EXPECT_NE(output.find("usage: ujam-serve"), std::string::npos)
            << flags;
    }
    EXPECT_EQ(runServe("--batch --threads 2 --deadline-ms 500", output),
              0)
        << output;
}

TEST(ServiceCli, OutOfRangeFaultNumberIsAFatalError)
{
    // An ordinal past 2^64 once escaped every FatalError handler as
    // std::out_of_range and aborted the server.
    ::setenv("UJAM_FAULT", "worker_crash:99999999999999999999", 1);
    std::string output;
    int status = runServe("--batch", output);
    ::unsetenv("UJAM_FAULT");
    EXPECT_EQ(status, 2) << output;
    EXPECT_NE(output.find("fatal: fault spec"), std::string::npos)
        << output;
}

TEST(ServiceSocket, ConcurrentClientsDeadlinesAndShutdown)
{
    const std::string socket_path = "/tmp/ujam-serve-test-" +
                                    std::to_string(getpid()) +
                                    ".sock";
    ServerConfig config;
    config.threads = 4;
    config.listenFd = bindListenSocket(socket_path);
    int listener = config.listenFd;
    UjamServer server(std::move(config));
    server.start();

    std::string optimize_line = requestLine("optimize", "c", kSource);
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
        clients.emplace_back([&, c] {
            ServeClient client;
            if (!client.connect(socket_path)) {
                failures.fetch_add(1);
                return;
            }
            for (int round = 0; round < 3; ++round) {
                if (responseStatus(client.request(
                        "{\"op\": \"ping\"}")) != "ok")
                    failures.fetch_add(1);
                if (responseStatus(client.request(optimize_line)) !=
                    "ok")
                    failures.fetch_add(1);
            }
            if (c == 0) {
                // One expired deadline: a deterministic timeout.
                std::string frame =
                    "{\"op\": \"optimize\", \"deadline_ms\": 0, "
                    "\"source\": " +
                    jsonQuote(kSource) + "}";
                if (responseStatus(client.request(frame)) !=
                    "timeout")
                    failures.fetch_add(1);
            }
        });
    }
    for (std::thread &client : clients)
        client.join();
    EXPECT_EQ(failures.load(), 0);

    // Graceful shutdown by request, not by destructor.
    ServeClient closer;
    ASSERT_TRUE(closer.connect(socket_path));
    EXPECT_EQ(responseStatus(closer.request("{\"op\": \"shutdown\"}")),
              "ok");
    EXPECT_TRUE(server.stopping());
    server.stop();
    EXPECT_GT(server.metrics().cacheMemoryHits.get(), 0u);
    ::close(listener);
    ::unlink(socket_path.c_str());
}

TEST(ServiceSocket, SharedListenerDrainsWithoutBlocking)
{
    // Supervised workers all poll one listener, so one connection
    // wakes every worker and only one accept wins. The others must
    // get EAGAIN at once and go back to their stop check: an accept
    // that sleeps until the next client is the shutdown drain hang.
    // The receive timeout only keeps a regression from hanging here.
    std::string path = "/tmp/ujam-listen-test-" +
                       std::to_string(getpid()) + ".sock";
    int listener = bindListenSocket(path);
    timeval timeout{1, 0};
    ::setsockopt(listener, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                 sizeof(timeout));

    EXPECT_NE(::fcntl(listener, F_GETFL) & O_NONBLOCK, 0);
    int none = ::accept4(listener, nullptr, nullptr, SOCK_CLOEXEC);
    int error = errno;
    EXPECT_EQ(none, -1);
    EXPECT_TRUE(error == EAGAIN || error == EWOULDBLOCK)
        << std::strerror(error);

    // Accepted sockets stay blocking: writeAll relies on send()
    // taking a whole response.
    ServeClient client;
    ASSERT_TRUE(client.connect(path));
    int accepted = ::accept4(listener, nullptr, nullptr, SOCK_CLOEXEC);
    ASSERT_GE(accepted, 0) << std::strerror(errno);
    EXPECT_EQ(::fcntl(accepted, F_GETFL) & O_NONBLOCK, 0);

    ::close(accepted);
    client.close();
    ::close(listener);
    ::unlink(path.c_str());
}

TEST(ServiceClient, ConnectGivesUpOnAFullBacklog)
{
    // A listener that never accepts, with its backlog full: connect
    // must give up after retry_ms, not sleep until an accept. Should
    // it block anyway, closing the listener after 3 s wakes it, so a
    // regression fails here instead of hanging the suite.
    std::string path = "/tmp/ujam-backlog-test-" +
                       std::to_string(getpid()) + ".sock";
    ::unlink(path.c_str());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    auto *raw = reinterpret_cast<sockaddr *>(&addr);
    int listener = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(listener, 0);
    ASSERT_EQ(::bind(listener, raw, sizeof(addr)), 0);
    ASSERT_EQ(::listen(listener, 1), 0);

    std::vector<int> pending;
    for (int i = 0; i < 16; ++i) {
        int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC |
                                       SOCK_NONBLOCK, 0);
        ASSERT_GE(fd, 0);
        if (::connect(fd, raw, sizeof(addr)) != 0) {
            ::close(fd); // EAGAIN: the backlog is full
            break;
        }
        pending.push_back(fd);
    }
    ASSERT_LT(pending.size(), 16u) << "the backlog never filled";

    std::atomic<bool> done{false};
    bool connected = true;
    std::chrono::steady_clock::duration took{};
    std::thread attempt([&] {
        auto start = std::chrono::steady_clock::now();
        ServeClient client;
        connected = client.connect(path, 200);
        took = std::chrono::steady_clock::now() - start;
        done = true;
    });
    auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(3);
    while (!done && std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ::close(listener);
    attempt.join();

    EXPECT_FALSE(connected);
    EXPECT_LT(took, std::chrono::seconds(1));
    for (int fd : pending)
        ::close(fd);
    ::unlink(path.c_str());
}

TEST(ServiceSocket, BusyServerLeavesConnectionsToAnIdleSibling)
{
    // Two one-thread servers on one listener stand in for two
    // supervised workers. A thread accepts only when it is free, so
    // while one client holds the first server's thread, later
    // connections wait in the listen backlog for the free sibling
    // instead of queuing behind the busy one.
    std::string path = "/tmp/ujam-sibling-test-" +
                       std::to_string(getpid()) + ".sock";
    ServerConfig config;
    config.threads = 1;
    config.listenFd = bindListenSocket(path);
    UjamServer first(config);
    UjamServer second(config);
    first.start();
    second.start();

    ServeClient holder;
    ASSERT_TRUE(holder.connect(path));
    ASSERT_EQ(responseStatus(holder.request("{\"op\": \"ping\"}")),
              "ok");

    int answered = 0;
    for (int i = 0; i < 8; ++i) {
        ServeClient client;
        if (client.connect(path) &&
            responseStatus(client.request("{\"op\": \"ping\"}", 1000)) ==
                "ok")
            ++answered;
    }
    EXPECT_EQ(answered, 8);

    holder.close();
    first.stop();
    second.stop();
    ::close(config.listenFd);
    ::unlink(path.c_str());
}

// --- the corruption-tolerant disk tier ------------------------------

/** @return Bytes in every regular file under @p dir. */
std::uint64_t
bytesUnder(const std::string &dir)
{
    std::uint64_t bytes = 0;
    for (auto &entry :
         std::filesystem::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file())
            bytes += entry.file_size();
    }
    return bytes;
}

TEST(ResultCacheDisk, TruncatedEntryQuarantinedAsMiss)
{
    std::string dir = scratchDir("truncate");
    ResultCacheConfig config;
    config.diskDir = dir;
    ResultCache cache(config);
    cache.put("00feed", "a result worth keeping around");

    std::string path = cache.diskPath("00feed");
    ASSERT_TRUE(std::filesystem::exists(path));
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) / 2);

    // Cold read path: a fresh cache so the memory tier cannot mask
    // the damage.
    ResultCache reopened(config);
    CacheTier tier = CacheTier::Memory;
    EXPECT_FALSE(reopened.get("00feed", &tier).has_value());
    EXPECT_EQ(tier, CacheTier::Miss);
    EXPECT_EQ(reopened.diskQuarantined(), 1u);
    EXPECT_FALSE(std::filesystem::exists(path));

    // The damaged file is kept for postmortem, not served.
    EXPECT_TRUE(std::filesystem::exists(dir + "/quarantine/00feed"));

    // A re-store heals the entry byte-identically.
    reopened.put("00feed", "a result worth keeping around");
    ResultCache healed(config);
    auto hit = healed.get("00feed");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "a result worth keeping around");
    std::filesystem::remove_all(dir);
}

TEST(ResultCacheDisk, BitFlipQuarantinedAsMiss)
{
    std::string dir = scratchDir("bitflip");
    ResultCacheConfig config;
    config.diskDir = dir;
    ResultCache cache(config);
    cache.put("00cafe", "payload protected by sha-256");

    std::string path = cache.diskPath("00cafe");
    {
        std::fstream file(path, std::ios::in | std::ios::out |
                                    std::ios::binary);
        ASSERT_TRUE(file.is_open());
        file.seekp(-3, std::ios::end);
        char byte = 0;
        file.seekg(file.tellp());
        file.get(byte);
        file.seekp(-1, std::ios::cur);
        file.put(static_cast<char>(byte ^ 0x01));
    }

    ResultCache reopened(config);
    EXPECT_FALSE(reopened.get("00cafe").has_value());
    EXPECT_EQ(reopened.diskQuarantined(), 1u);
    EXPECT_TRUE(std::filesystem::exists(dir + "/quarantine/00cafe"));

    reopened.put("00cafe", "payload protected by sha-256");
    ResultCache healed(config);
    auto hit = healed.get("00cafe");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "payload protected by sha-256");
    std::filesystem::remove_all(dir);
}

TEST(ResultCacheDisk, OneBudgetCoversTheWholeDirectory)
{
    std::string dir = scratchDir("budget");
    ResultCacheConfig config;
    config.memoryCapacity = 1;
    config.diskDir = dir;
    config.maxDiskBytes = 2048;
    ResultCache cache(config);

    // 32 entries of ~280 bytes, each in its own fan-out directory:
    // far past a budget that holds seven.
    std::string value(200, 'x');
    for (int i = 0; i < 32; ++i) {
        char hex[8];
        std::snprintf(hex, sizeof hex, "%02x", i);
        std::string key = std::string(hex) + "entry";
        cache.put(key, value);
        EXPECT_EQ(cache.diskPath(key), dir + "/" + hex + "/" + key);
    }
    EXPECT_GT(cache.diskEvictions(), 0u);

    // The budget bounds the sum over every fan-out directory.
    EXPECT_LE(bytesUnder(dir), 2048u);
    std::filesystem::remove_all(dir);
}

TEST(ResultCacheDisk, TwoCachesOnOneDirectoryUnderConcurrentWriters)
{
    // Two caches on one directory stand in for two worker processes:
    // their budget sweeps share no mutex.
    std::string dir = scratchDir("concurrent");
    auto key_of = [](const std::string &label) {
        return sha256Hex(label);
    };
    // Each value is its key repeated to 4 KiB, so a torn or misrouted
    // read shows as a mismatch or a quarantine.
    auto value_of = [](const std::string &key) {
        std::string value;
        while (value.size() < 4096)
            value += key;
        return value;
    };
    std::uint64_t entry =
        ResultCache::diskEntryBytes(value_of(key_of("")).size());
    ResultCacheConfig config;
    config.memoryCapacity = 1;
    config.diskDir = dir;
    config.maxDiskBytes = 6 * entry;
    ResultCache first(config);
    ResultCache second(config);

    std::atomic<int> mismatches{0};
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
        writers.emplace_back([&, t] {
            ResultCache &cache = t % 2 == 0 ? first : second;
            std::vector<std::string> keys;
            for (int i = 0; i < 64; ++i)
                keys.push_back(key_of("writer " + std::to_string(t) +
                                      " key " + std::to_string(i)));
            for (int i = 0; i < 8; ++i)
                keys.push_back(key_of("shared key " +
                                      std::to_string(i)));
            auto check = [&](const std::string &key) {
                std::optional<std::string> hit = cache.get(key);
                if (hit && *hit != value_of(key))
                    mismatches.fetch_add(1);
            };
            // Read back each key as it lands, and a shared key that
            // the other writers are replacing and evicting meanwhile.
            for (std::size_t i = 0; i < keys.size(); ++i) {
                cache.put(keys[i], value_of(keys[i]));
                check(keys[i]);
                check(keys[64 + i % 8]);
            }
            for (const std::string &key : keys)
                check(key);
        });
    }
    for (std::thread &writer : writers)
        writer.join();

    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(first.diskQuarantined() + second.diskQuarantined(), 0u);
    EXPECT_GE(first.diskEvictions() + second.diskEvictions(), 1u);
    // The last sweep to start saw every write, and only deletions
    // raced with it.
    EXPECT_LE(bytesUnder(dir), 6 * entry);
    std::filesystem::remove_all(dir);
}

// --- process-level fault specs --------------------------------------

TEST(ProcessFaultSpecs, GrammarRoutesSplitsAndRejects)
{
    MixedFaultSpecs mixed = parseMixedFaultSpecs(
        "unroll:0:throw, worker_crash:2:1, slow_response:1:50, "
        "cache_corrupt, worker_hang:3");
    ASSERT_EQ(mixed.pipeline.size(), 1u);
    ASSERT_EQ(mixed.process.size(), 4u);

    EXPECT_EQ(mixed.process[0].kind, ProcessFaultKind::WorkerCrash);
    EXPECT_EQ(mixed.process[0].ordinal, std::uint64_t{2});
    EXPECT_EQ(mixed.process[0].arg, std::int64_t{1});

    EXPECT_EQ(mixed.process[1].kind, ProcessFaultKind::SlowResponse);
    EXPECT_EQ(mixed.process[1].arg, std::int64_t{50});

    // A bare kind fires on every request.
    EXPECT_EQ(mixed.process[2].kind, ProcessFaultKind::CacheCorrupt);
    EXPECT_FALSE(mixed.process[2].ordinal.has_value());
    EXPECT_TRUE(mixed.process[2].matches(1));
    EXPECT_TRUE(mixed.process[2].matches(999));

    EXPECT_EQ(mixed.process[3].kind, ProcessFaultKind::WorkerHang);
    EXPECT_TRUE(mixed.process[3].matches(3));
    EXPECT_FALSE(mixed.process[3].matches(4));

    // Ordinals are 1-based; 0 is a spec error, not "never".
    EXPECT_THROW(parseMixedFaultSpecs("worker_crash:0"), FatalError);
    // Numbers past their type's range are spec errors too.
    for (const char *spec : {"worker_crash:99999999999999999999",
                             "worker_hang:1:99999999999999999999",
                             "unroll:99999999999999999999:throw"})
        EXPECT_THROW(parseMixedFaultSpecs(spec), FatalError) << spec;
    // Pipeline specs are not valid where only process specs belong.
    EXPECT_THROW(parseProcessFaultSpecs("unroll:0:throw"), FatalError);

    ::setenv("UJAM_FAULT", "worker_crash:7:2,unroll:0:throw", 1);
    std::vector<ProcessFaultSpec> process = processFaultSpecsFromEnv();
    std::vector<FaultSpec> pipeline = faultSpecsFromEnv();
    ::unsetenv("UJAM_FAULT");
    ASSERT_EQ(process.size(), 1u);
    EXPECT_EQ(process[0].toString(), "worker_crash:7:2");
    // The pipeline half never sees process specs (cache-key purity).
    ASSERT_EQ(pipeline.size(), 1u);
}

TEST(ServiceFault, SlowResponseDelaysTheMatchingRequest)
{
    ServerConfig config;
    config.workerFaults = std::vector<ProcessFaultSpec>{
        parseProcessFaultSpecs("slow_response:1:150").front()};
    UjamServer server(std::move(config));

    auto start = std::chrono::steady_clock::now();
    std::string first =
        server.processLine(requestLine("optimize", "slow", kSource));
    auto slow_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_EQ(responseStatus(first), "ok");
    EXPECT_GE(slow_ms, 150);

    // Only the first request matches the ordinal.
    start = std::chrono::steady_clock::now();
    server.processLine(requestLine("ping", "", ""));
    std::string second = server.processLine(
        requestLine("optimize", "fast", kSource, "{\"max_unroll\": 2}"));
    auto fast_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_EQ(responseStatus(second), "ok");
    EXPECT_LT(fast_ms, 150);
}

TEST(ServiceFault, CacheCorruptFaultIsDetectedOnRead)
{
    std::string dir = scratchDir("corrupt-fault");
    std::string line = requestLine("optimize", "cc", kSource);

    std::string expected;
    {
        ServerConfig clean;
        clean.cacheDir = dir + "-reference";
        UjamServer server(std::move(clean));
        expected = server.processLine(line);
    }

    {
        ServerConfig config;
        config.cacheDir = dir;
        config.workerFaults = std::vector<ProcessFaultSpec>{
            parseProcessFaultSpecs("cache_corrupt:1").front()};
        UjamServer server(std::move(config));
        // Served from the pipeline; the *store* is then corrupted.
        EXPECT_EQ(server.processLine(line), expected);
    }

    // A fresh server (cold memory tier) must detect the corruption,
    // quarantine the entry and recompute byte-identically.
    ServerConfig config;
    config.cacheDir = dir;
    config.workerFaults = std::vector<ProcessFaultSpec>{};
    UjamServer server(std::move(config));
    EXPECT_EQ(server.processLine(line), expected);
    EXPECT_EQ(server.cache().diskQuarantined(), 1u);
    EXPECT_EQ(server.metrics().cacheMisses.get(), 1u);
    EXPECT_FALSE(std::filesystem::is_empty(dir + "/quarantine"));

    // And the healed entry now disk-hits.
    ServerConfig healed;
    healed.cacheDir = dir;
    healed.workerFaults = std::vector<ProcessFaultSpec>{};
    UjamServer after(std::move(healed));
    EXPECT_EQ(after.processLine(line), expected);
    EXPECT_EQ(after.metrics().cacheDiskHits.get(), 1u);
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(dir + "-reference");
}

// --- degraded (cache-only) mode -------------------------------------

TEST(ServiceDegraded, ServesHitsRejectsMisses)
{
    std::string dir = scratchDir("degraded");
    std::string line = requestLine("optimize", "d", kSource);

    std::string expected;
    {
        ServerConfig warm;
        warm.cacheDir = dir;
        UjamServer server(std::move(warm));
        expected = server.processLine(line);
        ASSERT_EQ(responseStatus(expected), "ok");
    }

    ServerConfig config;
    config.cacheDir = dir;
    config.degraded = true;
    UjamServer server(std::move(config));

    // Cached work is served byte-identically...
    EXPECT_EQ(server.processLine(line), expected);
    // ...misses are refused, not computed...
    std::string miss = server.processLine(
        requestLine("optimize", "d2", kSource, "{\"max_unroll\": 2}"));
    EXPECT_EQ(responseStatus(miss), "degraded");
    EXPECT_EQ(server.metrics().requestsDegraded.get(), 1u);
    EXPECT_EQ(server.metrics().nestsOptimized.get(), 0u);
    // ...and non-pipeline ops still answer.
    EXPECT_EQ(responseStatus(server.processLine("{\"op\": \"ping\"}")),
              "ok");

    // Degraded mode probes the cache even for no_cache requests:
    // refusing a hit it already holds would only hurt the client.
    std::string no_cache =
        "{\"op\": \"optimize\", \"id\": \"d\", \"no_cache\": true, "
        "\"source\": " +
        jsonQuote(kSource) + "}";
    EXPECT_EQ(responseStatus(server.processLine(no_cache)), "ok");
    std::filesystem::remove_all(dir);
}

// --- idle-connection timeout ----------------------------------------

TEST(ServiceSocket, IdleConnectionsAreReaped)
{
    std::string socket_path = "/tmp/ujam-serve-idle-" +
                              std::to_string(getpid()) + ".sock";
    ServerConfig config;
    config.threads = 1;
    config.idleTimeoutMs = 100;
    config.listenFd = bindListenSocket(socket_path);
    int listener = config.listenFd;
    UjamServer server(std::move(config));
    server.start();

    ServeClient idler;
    ASSERT_TRUE(idler.connect(socket_path));
    // Say nothing; the server must reclaim the worker slot.
    auto give_up = std::chrono::steady_clock::now() +
                   std::chrono::seconds(5);
    while (server.metrics().connectionsIdleClosed.get() == 0 &&
           std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(server.metrics().connectionsIdleClosed.get(), 1u);

    // An active client on the same server is untouched.
    ServeClient active;
    ASSERT_TRUE(active.connect(socket_path));
    EXPECT_EQ(responseStatus(active.request("{\"op\": \"ping\"}")),
              "ok");
    server.stop();
    ::close(listener);
    ::unlink(socket_path.c_str());
}

// --- extended metrics schema ----------------------------------------

TEST(ServiceMetricsDoc, CacheAndSupervisorSections)
{
    ServerConfig config;
    config.supervisorStats = [] {
        SupervisorStats stats;
        stats.workersConfigured = 2;
        stats.workersAlive = 1;
        stats.restartsTotal = 3;
        stats.crashesTotal = 4;
        stats.degraded = true;
        stats.degradedTransitions = 1;
        stats.forcedKills = 2;
        stats.workers = {WorkerStats{3, 4, false, 0, 9},
                         WorkerStats{0, 0, true, 0, 0}};
        return stats;
    };
    UjamServer server(std::move(config));

    JsonParseResult parsed = parseJson(server.metricsSnapshot());
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const JsonValue &root = *parsed.value;
    EXPECT_EQ(memberNames(root),
              (std::vector<std::string>{"requests", "cache", "pipeline",
                                        "tune", "connections",
                                        "supervisor", "latency_us"}));

    // The cache section is flat: one set of disk counters for the
    // whole directory, in a fixed order.
    const JsonValue *cache = root.find("cache");
    ASSERT_TRUE(cache && cache->isObject());
    for (const auto &member : cache->members)
        EXPECT_TRUE(member.second.asInt().has_value()) << member.first;
    EXPECT_EQ(memberNames(*cache),
              (std::vector<std::string>{
                  "memory_hits", "disk_hits", "misses", "stores",
                  "bypassed", "memory_entries", "memory_capacity",
                  "disk_stores", "disk_evictions",
                  "disk_quarantined"}));
    EXPECT_EQ(*cache->find("disk_quarantined")->asInt(), 0);

    const JsonValue *supervisor = root.find("supervisor");
    ASSERT_NE(supervisor, nullptr);
    EXPECT_EQ(*supervisor->find("workers_configured")->asInt(), 2);
    EXPECT_EQ(*supervisor->find("workers_alive")->asInt(), 1);
    EXPECT_EQ(*supervisor->find("restarts_total")->asInt(), 3);
    EXPECT_EQ(*supervisor->find("crashes_total")->asInt(), 4);
    EXPECT_EQ(*supervisor->find("forced_kills")->asInt(), 2);
    const JsonValue *workers = supervisor->find("workers");
    ASSERT_TRUE(workers && workers->isArray());
    ASSERT_EQ(workers->elements.size(), 2u);
    EXPECT_EQ(*workers->elements[0].find("last_signal")->asInt(), 9);

    // Single-process servers must not grow a supervisor section.
    UjamServer plain({});
    JsonParseResult without = parseJson(plain.metricsSnapshot());
    ASSERT_TRUE(without.ok());
    EXPECT_EQ(without.value->find("supervisor"), nullptr);
}

} // namespace
} // namespace ujam
