/**
 * @file
 * The scenario-generator subsystem (src/scenarios) end to end.
 *
 * Three layers are under test: the generators themselves (naming,
 * determinism, and the declared ground truths checked against the
 * real dependence and reuse analyses), the corpus hook that gives
 * the CLIs and the service one name space over suite loops and
 * scenarios, and the sweep runner (manifest grammar, thread-count
 * invariance of the rendered document, the census arithmetic, and
 * the oracle smoke that ISSUE acceptance keys on).
 *
 * ScenarioTruth.* runs in the fuzz-fast tier: the sampled grids are
 * inputs the analysis stack was never calibrated on, so conformance
 * doubles as a property check for deps/analyzer and reuse/locality.
 */

#include <cstdint>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/tables.hh"
#include "ir/validate.hh"
#include "parser/parser.hh"
#include "scenarios/corpus_hook.hh"
#include "scenarios/scenario.hh"
#include "scenarios/sweep.hh"
#include "service/protocol.hh"
#include "support/diagnostics.hh"
#include "support/json.hh"
#include "support/thread_pool.hh"
#include "workloads/suite.hh"

namespace ujam
{
namespace
{

/** A small but multi-family manifest the sweep tests share. */
const char *const kSmallManifest = R"({
  "schema": "ujam-sweep-manifest-v1",
  "families": [
    {"family": "stencil1d", "grid": {"n": [16, 24], "radius": [1, 2]}},
    {"family": "matmul", "grid": {"n": [8], "m": [8], "order": [0, 1]}},
    {"family": "strided", "grid": {"n": [16], "m": [8], "stride": [0, 2]}},
    {"family": "irregular", "grid": {"n": [16], "m": [8], "pattern": [2]}}
  ],
  "machines": ["alpha", "wide"],
  "seeds": [0, 1],
  "oracle": true
})";

SweepManifest
smallManifest()
{
    std::string error;
    std::optional<SweepManifest> manifest =
        parseSweepManifest(kSmallManifest, &error);
    EXPECT_TRUE(manifest.has_value()) << error;
    return manifest.value();
}

TEST(ScenarioSpec, DefaultsFillAndCanonicalOrder)
{
    std::string error;
    std::optional<ScenarioSpec> spec =
        parseScenarioSpec("stencil1d", &error);
    ASSERT_TRUE(spec.has_value()) << error;
    EXPECT_EQ(spec->family, "stencil1d");
    EXPECT_EQ(spec->seed, 0u);

    const IScenarioGenerator *family = findScenarioFamily("stencil1d");
    ASSERT_NE(family, nullptr);
    for (const ScenarioParam &param : family->params())
        EXPECT_EQ(spec->at(param.name), param.def) << param.name;

    // Out-of-order parameters canonicalize to schema order, and the
    // canonical name round-trips to the identical spec.
    std::optional<ScenarioSpec> shuffled =
        parseScenarioSpec("stencil2d:radius=2,n=24:5", &error);
    ASSERT_TRUE(shuffled.has_value()) << error;
    std::string canonical = shuffled->toString();
    EXPECT_EQ(canonical.find("stencil2d:n=24,"), 0u) << canonical;
    std::optional<ScenarioSpec> again =
        parseScenarioSpec(canonical, &error);
    ASSERT_TRUE(again.has_value()) << error;
    EXPECT_EQ(again->toString(), canonical);
    EXPECT_EQ(again->params, shuffled->params);
    EXPECT_EQ(again->seed, 5u);
}

TEST(ScenarioSpec, RejectsBadNames)
{
    std::string error;
    EXPECT_FALSE(parseScenarioSpec("nosuch:n=8:0", &error).has_value());
    EXPECT_NE(error.find("unknown scenario family"), std::string::npos)
        << error;

    EXPECT_FALSE(
        parseScenarioSpec("stencil1d:bogus=3:0", &error).has_value());
    EXPECT_FALSE(parseScenarioSpec("stencil1d:n=3:0", &error).has_value())
        << "n=3 is below the schema minimum";
    EXPECT_FALSE(
        parseScenarioSpec("stencil1d:n=8:notanumber", &error).has_value());
    EXPECT_FALSE(parseScenarioSpec("stencil1d:n=8:-1", &error).has_value());
}

TEST(ScenarioSpec, NameSyntaxSplitsTheCorpus)
{
    EXPECT_TRUE(looksLikeScenarioName("stencil1d:n=8:0"));
    EXPECT_TRUE(looksLikeScenarioName("matmul:"));
    EXPECT_FALSE(looksLikeScenarioName("dmxpy"));
    EXPECT_FALSE(looksLikeScenarioName("matmul"));
}

TEST(ScenarioDeterminism, FixedSpecIsByteIdenticalAcrossThreads)
{
    // The determinism contract: generation is a pure function of the
    // complete spec, so concurrent generation from many threads must
    // produce byte-identical DSL.
    for (const IScenarioGenerator *family : scenarioRegistry()) {
        std::string error;
        std::optional<ScenarioSpec> spec =
            parseScenarioSpec(std::string(family->family()) + "::7",
                              &error);
        ASSERT_TRUE(spec.has_value()) << family->family() << ": " << error;

        const std::string reference = generateScenario(*spec).source;
        std::vector<std::string> got(8);
        parallelFor(got.size(), 0, [&](std::size_t i) {
            got[i] = generateScenario(*spec).source;
        });
        for (const std::string &source : got)
            EXPECT_EQ(source, reference) << family->family();
    }
}

TEST(ScenarioDeterminism, DistinctSeedsDiffer)
{
    for (const IScenarioGenerator *family : scenarioRegistry()) {
        std::string error;
        std::optional<ScenarioSpec> a =
            parseScenarioSpec(std::string(family->family()) + "::0",
                              &error);
        std::optional<ScenarioSpec> b =
            parseScenarioSpec(std::string(family->family()) + "::1",
                              &error);
        ASSERT_TRUE(a.has_value() && b.has_value()) << family->family();
        EXPECT_NE(generateScenario(*a).source,
                  generateScenario(*b).source)
            << family->family();
    }
}

/** Every sampled spec for one family: defaults, per-parameter low
 * and bumped values, two seeds each. */
std::vector<ScenarioSpec>
sampledSpecs(const IScenarioGenerator &family)
{
    std::vector<ScenarioSpec> specs;
    std::string error;
    for (std::uint64_t seed : {0, 1, 2}) {
        std::optional<ScenarioSpec> spec = parseScenarioSpec(
            concat(family.family(), "::", seed), &error);
        EXPECT_TRUE(spec.has_value()) << error;
        if (spec)
            specs.push_back(*spec);
    }
    for (const ScenarioParam &param : family.params()) {
        for (std::int64_t value :
             {param.min, std::min(param.def + 1, param.max)}) {
            std::optional<ScenarioSpec> spec = parseScenarioSpec(
                concat(family.family(), ":", param.name, "=", value,
                       ":0"),
                &error);
            EXPECT_TRUE(spec.has_value()) << error;
            if (spec)
                specs.push_back(*spec);
        }
    }
    return specs;
}

TEST(ScenarioTruth, SampledGridsConformToTheAnalyses)
{
    std::size_t checked = 0;
    for (const IScenarioGenerator *family : scenarioRegistry()) {
        for (const ScenarioSpec &spec : sampledSpecs(*family)) {
            GeneratedScenario scenario = generateScenario(spec);
            Program program = parseProgram(
                scenario.source, "scenario:" + scenario.name);
            EXPECT_TRUE(validateProgram(program).empty())
                << scenario.name;
            std::string why;
            EXPECT_TRUE(
                verifyScenarioTruth(program, scenario.truth, &why))
                << scenario.name << ": " << why;
            ++checked;
        }
    }
    // Eight families, three seed samples plus two samples per
    // schema parameter: a real grid, not a handful of spot checks.
    EXPECT_GE(checked, 80u);
}

TEST(CorpusHook, OneNameSpaceOverBothCorpora)
{
    LoadedProgram suite = loadProgramInput("dmxpy0", true, true);
    EXPECT_EQ(suite.program.nests().size(), 1u);
    EXPECT_EQ(suite.source, suiteLoop("dmxpy0").source);
    EXPECT_EQ(suite.program.sourceName(), "<input>");
    EXPECT_EQ(loadProgramInput("dmxpy0", true, false).program.sourceName(),
              "suite:dmxpy0");

    LoadedProgram scenario =
        loadProgramInput("matmul:n=8,m=8:0", true, true);
    EXPECT_EQ(scenario.name, "matmul:n=8,m=8:0");
    EXPECT_EQ(scenario.program.sourceName(),
              "scenario:matmul:n=8,m=8,order=0:0");

    EXPECT_THROW(loadProgramInput("nosuchloop", true, true), FatalError);
    EXPECT_THROW(loadProgramInput("nosuch:n=8:0", true, true),
                 FatalError);
    EXPECT_THROW(loadProgramInput("no/such/file.uj", false, false),
                 FatalError);

    // A file that parses but fails validation: the pipeline CLIs
    // reject it, the linter loads it as is.
    std::string invalid = std::string(UJAM_TEST_GOLDEN_DIR) + "/golden.uj";
    EXPECT_THROW(loadProgramInput(invalid, false, true), FatalError);
    LoadedProgram as_is = loadProgramInput(invalid, false, false);
    EXPECT_EQ(as_is.program.sourceName(), invalid);
    EXPECT_FALSE(as_is.source.empty());

    std::string list = renderCorpusList();
    EXPECT_NE(list.find("dmxpy0"), std::string::npos);
    for (const IScenarioGenerator *family : scenarioRegistry())
        EXPECT_NE(list.find(family->family()), std::string::npos)
            << family->family();

    EXPECT_EQ(corpusFileStem("stencil2d:n=24,radius=2:7"),
              "stencil2d_n_24_radius_2_7");
    EXPECT_EQ(corpusFileStem("dmxpy"), "dmxpy");
}

TEST(SweepManifest, ParsesGridsAndCountsJobs)
{
    SweepManifest manifest = smallManifest();
    ASSERT_EQ(manifest.families.size(), 4u);
    EXPECT_TRUE(manifest.oracle);
    // (2*2 + 2 + 2 + 1) grid points x 2 seeds x 2 machines x 1
    // pipeline.
    EXPECT_EQ(manifest.jobCount(), 9u * 2u * 2u);
}

TEST(SweepManifest, RejectsBadDocuments)
{
    std::string error;
    EXPECT_FALSE(parseSweepManifest("not json", &error).has_value());
    EXPECT_FALSE(parseSweepManifest("{}", &error).has_value())
        << "families is required";
    EXPECT_FALSE(parseSweepManifest(
                     R"({"families": []})", &error)
                     .has_value());
    EXPECT_FALSE(
        parseSweepManifest(
            R"({"families": [{"family": "nosuch", "grid": {}}]})",
            &error)
            .has_value());
    EXPECT_NE(error.find("nosuch"), std::string::npos) << error;
    EXPECT_FALSE(
        parseSweepManifest(
            R"({"families": [{"family": "matmul",
                              "grid": {"bogus": [1]}}]})",
            &error)
            .has_value());
    EXPECT_FALSE(
        parseSweepManifest(
            R"({"families": [{"family": "matmul",
                              "grid": {"n": [99999]}}]})",
            &error)
            .has_value())
        << "grid values must satisfy the schema range";
    EXPECT_FALSE(
        parseSweepManifest(
            R"({"families": [{"family": "matmul", "grid": {}}],
                "pipelines": [{"name": "p", "lint": "loud"}]})",
            &error)
            .has_value());
    EXPECT_FALSE(
        parseSweepManifest(
            R"({"families": [{"family": "matmul", "grid": {}}],
                "machines": ["vax"]})",
            &error)
            .has_value());
}

TEST(SweepManifest, DefaultManifestRoundTripsAndIsBroad)
{
    std::string error;
    std::optional<SweepManifest> parsed =
        parseSweepManifest(renderDefaultSweepManifest(), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->jobCount(), defaultSweepManifest().jobCount());
    // ISSUE acceptance: at least four families and a hundred
    // scenarios through the oracle.
    EXPECT_GE(parsed->families.size(), 4u);
    EXPECT_GE(parsed->jobCount(), 100u);
    EXPECT_TRUE(parsed->oracle);
}

TEST(SweepDeterminism, DocumentIsThreadCountInvariant)
{
    SweepManifest manifest = smallManifest();
    SweepResult serial = runSweep(manifest, 1);
    SweepResult parallel = runSweep(manifest, 4);
    EXPECT_EQ(sweepResultJson(serial, 1), sweepResultJson(parallel, 1));
    EXPECT_EQ(sweepFeatureRows(serial), sweepFeatureRows(parallel));
}

TEST(SweepWork, OneJobBuildsTablesOncePerDependenceView)
{
    // UJ014 builds on the nest as written without parameter bindings,
    // the pipeline on the normalized nest under the program's
    // defaults; the tuner's model run and its candidates read the
    // pipeline's analysis.
    SweepManifest manifest = defaultSweepManifest();
    manifest.families = {
        {"matmul", {{"n", {12}}, {"m", {12}}, {"order", {0}}}}};
    manifest.seeds = {0};
    manifest.machines = {"alpha"};
    std::uint64_t builds = nestTableBuilds();
    SweepResult result = runSweep(manifest, 1);
    EXPECT_EQ(nestTableBuilds() - builds, 2u);
    ASSERT_EQ(result.rows.size(), 1u);
    EXPECT_FALSE(result.rows[0].tunerPick.empty());
    EXPECT_EQ(result.rows[0].rollbacks, 0u);
}

TEST(SweepOracle, SmokeGridHasZeroRollbacks)
{
    SweepManifest manifest = smallManifest();
    ASSERT_TRUE(manifest.oracle);
    SweepResult result = runSweep(manifest);
    ASSERT_EQ(result.rows.size(), manifest.jobCount());
    for (const SweepRow &row : result.rows) {
        EXPECT_TRUE(row.validatorOk) << row.scenario;
        EXPECT_TRUE(row.truthOk) << row.scenario << ": " << row.truthWhy;
        EXPECT_EQ(row.rollbacks, 0u)
            << row.scenario << ": "
            << (row.rollbackDetail.empty() ? ""
                                           : row.rollbackDetail.front());
        EXPECT_EQ(row.lintErrors, 0u) << row.scenario;
        EXPECT_FALSE(row.tunerPick.empty()) << row.scenario;
    }
}

TEST(SweepJson, CensusMatchesTheRowsAndFeatureRowsParse)
{
    SweepManifest manifest = smallManifest();
    SweepResult result = runSweep(manifest);
    JsonParseResult doc = parseJson(sweepResultJson(result, 1));
    ASSERT_TRUE(doc.ok()) << doc.error;
    const JsonValue &root = *doc.value;

    const JsonValue *schema = root.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->stringValue, "ujam-sweep-v1");

    const JsonValue *census = root.find("census");
    const JsonValue *rows = root.find("scenarios");
    ASSERT_NE(census, nullptr);
    ASSERT_NE(rows, nullptr);
    ASSERT_TRUE(rows->isArray());
    ASSERT_EQ(rows->elements.size(), result.rows.size());

    // Re-derive the census from the row objects; the two views of
    // the sweep must agree.
    std::int64_t truth_ok = 0;
    std::int64_t agree = 0;
    std::map<std::string, std::int64_t> per_family;
    for (const JsonValue &row : rows->elements) {
        const JsonValue *family = row.find("family");
        ASSERT_NE(family, nullptr);
        per_family[family->stringValue] += 1;
        truth_ok += row.find("truth_ok")->boolValue;
        agree += row.find("agree")->boolValue;
        const JsonValue *features = row.find("features");
        ASSERT_NE(features, nullptr);
        ASSERT_TRUE(features->isObject());
        EXPECT_EQ(features->find("schema")->stringValue,
                  "ujam-tune-features-v1");
    }
    EXPECT_EQ(census->find("truth_ok")->asInt().value(), truth_ok);
    const JsonValue *agreement = census->find("model_tuner_agreement");
    ASSERT_NE(agreement, nullptr);
    EXPECT_EQ(agreement->find("agree")->asInt().value(), agree);
    EXPECT_EQ(agreement->find("total")->asInt().value(),
              std::int64_t(result.rows.size()));

    const JsonValue *by_family = census->find("by_family");
    ASSERT_NE(by_family, nullptr);
    ASSERT_EQ(by_family->elements.size(), per_family.size());
    for (const JsonValue &cell : by_family->elements) {
        const std::string &name = cell.find("family")->stringValue;
        EXPECT_EQ(cell.find("scenarios")->asInt().value(),
                  per_family[name])
            << name;
    }

    // Every feature line is standalone NDJSON with the tune schema.
    std::string ndjson = sweepFeatureRows(result);
    std::size_t lines = 0;
    std::size_t start = 0;
    while (start < ndjson.size()) {
        std::size_t end = ndjson.find('\n', start);
        ASSERT_NE(end, std::string::npos);
        JsonParseResult line =
            parseJson(ndjson.substr(start, end - start));
        ASSERT_TRUE(line.ok()) << line.error;
        ++lines;
        start = end + 1;
    }
    EXPECT_EQ(lines, result.rows.size());
}

TEST(ScenarioService, ScenarioFieldResolvesToSource)
{
    RequestParse parsed = parseRequest(
        R"({"op": "lint", "scenario": "stencil1d:n=32:1"})");
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_EQ(parsed.request->scenarioName,
              "stencil1d:n=32,m=32,radius=1,inplace=0:1");
    EXPECT_EQ(parsed.request->source,
              generateScenario(
                  parseScenarioSpec("stencil1d:n=32:1", nullptr).value())
                  .source);

    RequestParse bad = parseRequest(
        R"({"op": "lint", "scenario": "nosuch:n=1:0"})");
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.kind, RequestErrorKind::BadField);

    RequestParse both = parseRequest(
        R"({"op": "lint", "scenario": "stencil1d", "source": "x"})");
    EXPECT_FALSE(both.ok());
    EXPECT_NE(both.error.find("mutually exclusive"), std::string::npos)
        << both.error;
}

} // namespace
} // namespace ujam
