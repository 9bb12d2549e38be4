/**
 * @file
 * The measured-autotuning subsystem (src/tune) end to end.
 *
 * Everything here runs the simulator measurement backend
 * (MeasureMode::Model) unless a test is explicitly about the host
 * compiler: Model mode is deterministic and compiler-free, so these
 * tests assert bit-identical reruns and byte-identical service cache
 * hits rather than merely "close" numbers. The one Wall-mode test
 * verifies the graceful self-skip contract with the compiler hidden.
 */

#include <cstdlib>

#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "codegen/compile.hh"
#include "core/tables.hh"
#include "scenarios/corpus_hook.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "support/diagnostics.hh"
#include "support/json.hh"
#include "tune/autotuner.hh"
#include "workloads/suite.hh"

namespace ujam
{
namespace
{

TuneConfig
modelConfig()
{
    TuneConfig config;
    config.measure = MeasureMode::Model;
    config.neighborhood = 1;
    return config;
}

/** RAII: set an environment variable, restore the old value on exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        ::setenv(name, value, 1);
    }

    ~ScopedEnv()
    {
        if (old_.has_value())
            ::setenv(name_.c_str(), old_->c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    std::optional<std::string> old_;
};

// --- determinism ----------------------------------------------------

TEST(TuneModel, RerunsAreBitIdentical)
{
    Program program = loadSuiteProgram(suiteLoop("mmjik"));
    MachineModel machine = MachineModel::decAlpha21064();
    TuneConfig config = modelConfig();

    TuneResult first = tuneProgram(program, machine, config);
    TuneResult second = tuneProgram(program, machine, config);

    ASSERT_FALSE(first.skipped);
    ASSERT_EQ(first.nests.size(), 1u);
    EXPECT_GE(first.nests[0].measuredCount, 2u);
    // The whole document -- candidate order, Pareto flags, every
    // rendered number -- must be byte-identical across reruns.
    EXPECT_EQ(tuneResultJson(first, config),
              tuneResultJson(second, config));
    EXPECT_EQ(tuneFeatureRowJson("mmjik", first, first.nests[0]),
              tuneFeatureRowJson("mmjik", second, second.nests[0]));
}

TEST(TuneModel, SuiteJsonMatchesGolden)
{
    // Byte for byte what `ujam-tune --measure model --suite --json`
    // prints: every suite loop's candidates with their model numbers
    // (balance, score, registers, simulated cycles), which come from
    // the unroll tables and the candidates' pipelines. Model mode is
    // deterministic, so no number may move.
    ServiceRequest request;
    ASSERT_EQ(applyRequestOption(request, "tune_measure", "model"), "");
    const MachineModel machine = MachineModel::decAlpha21064();
    std::string json = "{\"schema\": \"ujam-tune-cli-v1\", "
                       "\"programs\": [";
    for (const SuiteLoop &loop : testSuite()) {
        LoadedProgram entry = loadProgramInput(loop.name, true, true);
        TuneResult result =
            tuneProgram(entry.program, machine, request.tune);
        if (&loop != &testSuite().front())
            json += ", ";
        json += concat("{\"program\": \"", entry.name, "\", \"tune\": ",
                       tuneResultJson(result, request.tune), "}");
    }
    json += "]}\n";

    const std::string path =
        std::string(UJAM_TEST_GOLDEN_DIR) + "/tune_model_suite.golden";
    if (std::getenv("UJAM_UPDATE_GOLDEN")) {
        std::ofstream(path) << json;
        GTEST_SKIP() << "golden updated";
    }
    std::ifstream in(path);
    ASSERT_TRUE(in) << "cannot open " << path;
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(json, golden.str());
}

TEST(TuneModel, CandidatesReadTheModelRunsTables)
{
    // The model run builds the nest's tables once; every forced
    // candidate reads its cell from them, however many there are.
    Program program = loadSuiteProgram(suiteLoop("mmjik"));
    MachineModel machine = MachineModel::decAlpha21064();
    for (std::int64_t radius : {1, 2}) {
        SCOPED_TRACE(radius);
        TuneConfig config = modelConfig();
        config.neighborhood = radius;
        std::uint64_t builds = nestTableBuilds();
        TuneResult tuned = tuneProgram(program, machine, config);
        EXPECT_EQ(nestTableBuilds() - builds, 1u);
        ASSERT_EQ(tuned.nests.size(), 1u);
        EXPECT_GE(tuned.nests[0].measuredCount, radius == 1 ? 3u : 8u);
    }
}

// --- model-vs-measured sanity over suite loops ----------------------

TEST(TuneModel, SuiteLoopVerdictsAreCoherent)
{
    MachineModel machine = MachineModel::decAlpha21064();
    TuneConfig config = modelConfig();

    for (const char *name : {"mmjik", "jacobi", "sor"}) {
        SCOPED_TRACE(name);
        Program program = loadSuiteProgram(suiteLoop(name));
        TuneResult tuned = tuneProgram(program, machine, config);
        ASSERT_FALSE(tuned.skipped);
        ASSERT_EQ(tuned.nests.size(), 1u);
        const NestTune &nest = tuned.nests[0];

        // The model pick and the zero baseline are always measured.
        EXPECT_GE(nest.measuredCount, 2u);
        EXPECT_GT(nest.bestRuntime, 0.0);
        // The best is no slower than the pick by construction.
        EXPECT_LE(nest.bestRuntime, nest.modelPickRuntime);
        EXPECT_GE(nest.modelOverBest, 1.0);
        // Model mode compares exactly: optimal iff nothing was faster.
        EXPECT_EQ(nest.modelOptimal,
                  nest.bestRuntime >= nest.modelPickRuntime);

        bool saw_pick = false;
        std::size_t pareto = 0;
        for (const TuneCandidate &candidate : nest.candidates) {
            if (candidate.source == "model") {
                saw_pick = true;
                EXPECT_EQ(candidate.unroll, nest.modelPick);
                if (candidate.valid) {
                    EXPECT_DOUBLE_EQ(candidate.vsModelPick, 1.0);
                }
            }
            if (candidate.pareto) {
                ++pareto;
                // Only measured, checksum-verified candidates may sit
                // on the frontier.
                EXPECT_TRUE(candidate.valid);
            }
        }
        EXPECT_TRUE(saw_pick);
        EXPECT_GE(pareto, 1u);
    }
}

// --- the graceful self-skip without a host compiler -----------------

TEST(TuneWall, SkipsGracefullyWithoutHostCompiler)
{
    // An unset/empty UJAM_CC falls through to the PATH probe, and an
    // empty PATH finds nothing, so hostCCompiler() reports none.
    ScopedEnv cc("UJAM_CC", "");
    ScopedEnv path("PATH", "/ujam-no-such-dir");
    ASSERT_TRUE(hostCCompiler().empty());

    Program program = loadSuiteProgram(suiteLoop("mmjik"));
    TuneConfig config;
    config.measure = MeasureMode::Wall;
    TuneResult tuned =
        tuneProgram(program, MachineModel::decAlpha21064(), config);

    EXPECT_TRUE(tuned.skipped);
    EXPECT_FALSE(tuned.skipReason.empty());
    EXPECT_TRUE(tuned.nests.empty());

    // The rendered document still parses and carries the skip.
    JsonParseResult parsed = parseJson(tuneResultJson(tuned, config));
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const JsonValue *skipped = parsed.value->find("skipped");
    ASSERT_NE(skipped, nullptr);
    EXPECT_TRUE(skipped->boolValue);
}

// --- the tune service op --------------------------------------------

TEST(TuneService, HitIsByteIdenticalToMiss)
{
    UjamServer server({});
    std::string line =
        R"({"op": "tune", "id": "t", "source": "param n = 64\n)"
        R"(real a(n, n)\nreal b(n, n)\ndo j = 1, n\n  do i = 1, n\n)"
        R"(    a(i, j) = a(i, j) + b(j, i)\n  end do\nend do\n"})";

    std::string first = server.processLine(line);
    std::string second = server.processLine(line);

    EXPECT_EQ(first, second);
    EXPECT_NE(first.find("\"status\": \"ok\""), std::string::npos);
    EXPECT_NE(first.find("ujam-tune-v1"), std::string::npos);
    EXPECT_EQ(server.metrics().cacheMisses.get(), 1u);
    EXPECT_EQ(server.metrics().cacheMemoryHits.get(), 1u);
    EXPECT_EQ(server.metrics().opTune.get(), 2u);
    EXPECT_EQ(server.metrics().tuneRequests.get(), 1u);
    EXPECT_EQ(server.metrics().tuneCacheHits.get(), 1u);
    EXPECT_GE(server.metrics().tuneCandidatesMeasured.get(), 2u);
}

// --- the BENCH_TUNE.json artifact schema ----------------------------

TEST(TuneBench, ArtifactSchemaSmoke)
{
#ifndef UJAM_REPO_ROOT
    GTEST_SKIP() << "UJAM_REPO_ROOT not baked in";
#else
    std::string path = std::string(UJAM_REPO_ROOT) + "/BENCH_TUNE.json";
    std::ifstream in(path);
    if (!in)
        GTEST_SKIP() << "no " << path << " (bench_tune not yet run)";
    std::ostringstream text;
    text << in.rdbuf();

    JsonParseResult parsed = parseJson(text.str());
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    ASSERT_TRUE(parsed.value->isObject());

    const JsonValue *measure = parsed.value->find("measure");
    ASSERT_NE(measure, nullptr);
    EXPECT_TRUE(measure->stringValue == "wall" ||
                measure->stringValue == "model");

    const JsonValue *loops = parsed.value->find("loops");
    ASSERT_NE(loops, nullptr);
    ASSERT_TRUE(loops->isArray());
    EXPECT_GE(loops->elements.size(), testSuite().size());
    for (const JsonValue &loop : loops->elements) {
        ASSERT_TRUE(loop.isObject());
        for (const char *key :
             {"loop", "model_pick", "measured_best", "model_over_best",
              "model_optimal", "candidates_measured"}) {
            EXPECT_NE(loop.find(key), nullptr) << key;
        }
    }

    const JsonValue *summary = parsed.value->find("summary");
    ASSERT_NE(summary, nullptr);
    const JsonValue *tuned = summary->find("nests_tuned");
    ASSERT_NE(tuned, nullptr);
    EXPECT_GE(tuned->numberValue, 1.0);
#endif
}

} // namespace
} // namespace ujam
