#include "scenarios/sweep.hh"

#include <algorithm>
#include <array>
#include <map>

#include "driver/driver.hh"
#include "ir/validate.hh"
#include "model/machine.hh"
#include "parser/parser.hh"
#include "support/diagnostics.hh"
#include "support/json.hh"
#include "support/thread_pool.hh"
#include "tune/autotuner.hh"

namespace ujam
{

namespace
{

std::optional<LintMode>
lintModeFromName(const std::string &name)
{
    if (name == "off")
        return LintMode::Off;
    if (name == "warn")
        return LintMode::Warn;
    if (name == "strict")
        return LintMode::Strict;
    return std::nullopt;
}

/** One expanded unit of sweep work. */
struct SweepJob
{
    ScenarioSpec spec;
    std::string machine;
    SweepPipeline pipeline;
    bool oracle = false;
};

/**
 * Expand a manifest into jobs, in the fixed order the document and
 * the row slots use: families outermost (manifest order), then grid
 * combinations (last grid entry varies fastest), then seeds,
 * machines, pipelines.
 */
std::vector<SweepJob>
expandJobs(const SweepManifest &manifest)
{
    std::vector<SweepJob> jobs;
    for (const SweepFamily &entry : manifest.families) {
        const IScenarioGenerator *generator =
            findScenarioFamily(entry.family);
        if (!generator)
            fatal("sweep manifest names unknown family '",
                  entry.family, "'");

        std::vector<std::size_t> index(entry.grid.size(), 0);
        while (true) {
            ScenarioSpec spec;
            spec.family = entry.family;
            for (const ScenarioParam &param : generator->params())
                spec.params[param.name] = param.def;
            for (std::size_t g = 0; g < entry.grid.size(); ++g)
                spec.params[entry.grid[g].first] =
                    entry.grid[g].second[index[g]];

            for (std::uint64_t seed : manifest.seeds) {
                spec.seed = seed;
                for (const std::string &machine : manifest.machines) {
                    for (const SweepPipeline &pipeline :
                         manifest.pipelines) {
                        SweepJob job;
                        job.spec = spec;
                        job.machine = machine;
                        job.pipeline = pipeline;
                        job.oracle = manifest.oracle;
                        jobs.push_back(std::move(job));
                    }
                }
            }

            // Odometer step, last entry fastest.
            bool done = entry.grid.empty();
            std::size_t g = entry.grid.size();
            while (!done) {
                if (g == 0) {
                    done = true;
                    break;
                }
                --g;
                if (++index[g] < entry.grid[g].second.size())
                    break;
                index[g] = 0;
            }
            if (done)
                break;
        }
    }
    return jobs;
}

/** Run one job start to finish; never throws (faults -> row flags). */
SweepRow
runJob(const SweepJob &job)
{
    SweepRow row;
    row.scenario = job.spec.toString();
    row.family = job.spec.family;
    row.machine = job.machine;
    row.pipeline = job.pipeline.name;
    row.seed = job.spec.seed;

    std::optional<MachineModel> machine = machinePreset(job.machine);
    if (!machine)
        fatal("sweep manifest names unknown machine '", job.machine,
              "'");

    GeneratedScenario scenario = generateScenario(job.spec);
    Program program =
        parseProgram(scenario.source, "scenario:" + scenario.name);
    row.validatorOk = validateProgram(program).empty();
    if (!program.nests().empty())
        row.depth = program.nests().front().depth();
    row.truthOk =
        verifyScenarioTruth(program, scenario.truth, &row.truthWhy);

    PipelineConfig config;
    config.threads = 1; // the sweep fans out above this level
    std::optional<LintMode> lint = lintModeFromName(job.pipeline.lint);
    if (!lint)
        fatal("sweep pipeline '", job.pipeline.name,
              "' has unknown lint mode '", job.pipeline.lint, "'");
    config.lint = *lint;
    config.distribute = job.pipeline.distribute;
    config.interchange = job.pipeline.interchange;
    config.scalarReplace = job.pipeline.scalarReplace;
    config.prefetch = job.pipeline.prefetch;
    config.safety.oracle = job.oracle;
    config.safety.oracleTrials = 1;

    PipelineResult optimized =
        optimizeProgram(program, *machine, config);
    row.lintErrors = optimized.lint.errorCount();
    row.lintWarnings = optimized.lint.warnCount();
    row.lintNotes = optimized.lint.noteCount();
    row.rollbacks = optimized.containedFaults();
    for (const StageDiagnostic &diag : optimized.programDiagnostics)
        row.rollbackDetail.push_back(diag.toString());
    for (const NestOutcome &outcome : optimized.outcomes)
        for (const StageDiagnostic &diag : outcome.contained)
            row.rollbackDetail.push_back(diag.toString());
    if (!optimized.outcomes.empty())
        row.modelPick =
            optimized.outcomes.front().decision.unroll.toString();

    // The tuner re-runs the pipeline per candidate: keep its copy
    // lint- and oracle-free (both were already accounted above). Its
    // model run answers from this run's analysis, which is built for
    // the same normalized nest under the same optimizer inputs.
    TuneConfig tune;
    tune.pipeline = config;
    tune.pipeline.lint = LintMode::Off;
    tune.pipeline.safety.oracle = false;
    if (!optimized.outcomes.empty())
        tune.pipeline.optimizer.analysis =
            optimized.outcomes.front().analysis;
    tune.measure = MeasureMode::Model;
    tune.neighborhood = 1;
    TuneResult tuned = tuneProgram(program, *machine, tune);
    if (!tuned.skipped && !tuned.nests.empty()) {
        const NestTune &nest = tuned.nests.front();
        row.tunerPick = nest.measuredBest.toString();
        row.modelCycles = nest.modelPickRuntime;
        row.bestCycles = nest.bestRuntime;
        for (const TuneCandidate &candidate : nest.candidates)
            if (candidate.source == "baseline" && candidate.valid)
                row.baselineCycles = candidate.runtime;
        row.agree = !row.modelPick.empty() &&
                    row.modelPick == row.tunerPick;
        row.featureRow = tuneFeatureRowJson("scenario:" + row.scenario,
                                            tuned, nest);
    }
    return row;
}

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

bool
intArray(const JsonValue &node, std::vector<std::int64_t> &out)
{
    if (!node.isArray() || node.elements.empty())
        return false;
    out.clear();
    for (const JsonValue &element : node.elements) {
        if (!element.isNumber())
            return false;
        std::optional<std::int64_t> value = element.asInt();
        if (!value)
            return false;
        out.push_back(*value);
    }
    return true;
}

bool
parseFamilies(const JsonValue &node, SweepManifest &manifest,
              std::string *error)
{
    if (!node.isArray() || node.elements.empty())
        return fail(error,
                    "manifest 'families' must be a non-empty array");
    for (const JsonValue &element : node.elements) {
        if (!element.isObject())
            return fail(error, "family entries must be objects");
        const JsonValue *name = element.find("family");
        if (!name || !name->isString())
            return fail(error,
                        "family entry needs a string 'family'");
        const IScenarioGenerator *generator =
            findScenarioFamily(name->stringValue);
        if (!generator)
            return fail(error, "unknown scenario family '" +
                                   name->stringValue + "'");

        SweepFamily family;
        family.family = name->stringValue;
        if (const JsonValue *grid = element.find("grid")) {
            if (!grid->isObject())
                return fail(error, "family 'grid' must be an object");
            for (const auto &[param, values] : grid->members) {
                const ScenarioParam *schema = nullptr;
                for (const ScenarioParam &candidate :
                     generator->params())
                    if (candidate.name == param)
                        schema = &candidate;
                if (!schema)
                    return fail(error, "family '" + family.family +
                                           "' has no parameter '" +
                                           param + "'");
                std::vector<std::int64_t> list;
                if (!intArray(values, list))
                    return fail(
                        error,
                        "grid '" + param +
                            "' must be a non-empty integer array");
                for (std::int64_t value : list)
                    if (value < schema->min || value > schema->max)
                        return fail(
                            error,
                            concat("grid '", param, "' value ", value,
                                   " out of range [", schema->min,
                                   ", ", schema->max, "]"));
                family.grid.emplace_back(param, std::move(list));
            }
        }
        manifest.families.push_back(std::move(family));
    }
    return true;
}

bool
parsePipelines(const JsonValue &node, SweepManifest &manifest,
               std::string *error)
{
    if (!node.isArray() || node.elements.empty())
        return fail(error,
                    "manifest 'pipelines' must be a non-empty array");
    manifest.pipelines.clear();
    for (const JsonValue &element : node.elements) {
        if (!element.isObject())
            return fail(error, "pipeline entries must be objects");
        SweepPipeline pipeline;
        const JsonValue *name = element.find("name");
        if (!name || !name->isString())
            return fail(error,
                        "pipeline entry needs a string 'name'");
        pipeline.name = name->stringValue;
        if (const JsonValue *lint = element.find("lint")) {
            if (!lint->isString() ||
                !lintModeFromName(lint->stringValue))
                return fail(error, "pipeline 'lint' must be 'off', "
                                   "'warn' or 'strict'");
            pipeline.lint = lint->stringValue;
        }
        auto flag = [&](const char *key, bool &slot) {
            if (const JsonValue *value = element.find(key)) {
                if (!value->isBool())
                    return false;
                slot = value->boolValue;
            }
            return true;
        };
        if (!flag("distribute", pipeline.distribute) ||
            !flag("interchange", pipeline.interchange) ||
            !flag("scalar_replace", pipeline.scalarReplace) ||
            !flag("prefetch", pipeline.prefetch))
            return fail(error,
                        "pipeline flags must be JSON booleans");
        manifest.pipelines.push_back(std::move(pipeline));
    }
    return true;
}

} // namespace

std::size_t
SweepManifest::jobCount() const
{
    std::size_t combos = 0;
    for (const SweepFamily &entry : families) {
        std::size_t per_family = 1;
        for (const auto &[param, values] : entry.grid)
            per_family *= values.size();
        combos += per_family;
    }
    return combos * seeds.size() * machines.size() * pipelines.size();
}

std::optional<SweepManifest>
parseSweepManifest(const std::string &text, std::string *error)
{
    JsonParseResult parsed = parseJson(text);
    if (!parsed.ok()) {
        fail(error, "manifest is not valid JSON: " + parsed.error);
        return std::nullopt;
    }
    const JsonValue &root = *parsed.value;
    if (!root.isObject()) {
        fail(error, "manifest must be a JSON object");
        return std::nullopt;
    }
    if (const JsonValue *schema = root.find("schema")) {
        if (!schema->isString() ||
            schema->stringValue != "ujam-sweep-manifest-v1") {
            fail(error,
                 "manifest 'schema' must be 'ujam-sweep-manifest-v1'");
            return std::nullopt;
        }
    }

    SweepManifest manifest;
    manifest.families.clear();
    const JsonValue *families = root.find("families");
    if (!families) {
        fail(error, "manifest needs a 'families' array");
        return std::nullopt;
    }
    if (!parseFamilies(*families, manifest, error))
        return std::nullopt;

    if (const JsonValue *machines = root.find("machines")) {
        if (!machines->isArray() || machines->elements.empty()) {
            fail(error,
                 "manifest 'machines' must be a non-empty array");
            return std::nullopt;
        }
        manifest.machines.clear();
        for (const JsonValue &element : machines->elements) {
            if (!element.isString() ||
                !machinePreset(element.stringValue)) {
                fail(error,
                     "machines must name presets: alpha, parisc, "
                     "wide, wide-prefetch");
                return std::nullopt;
            }
            manifest.machines.push_back(element.stringValue);
        }
    }

    if (const JsonValue *pipelines = root.find("pipelines"))
        if (!parsePipelines(*pipelines, manifest, error))
            return std::nullopt;

    if (const JsonValue *seeds = root.find("seeds")) {
        std::vector<std::int64_t> list;
        if (!intArray(*seeds, list) ||
            std::any_of(list.begin(), list.end(),
                        [](std::int64_t s) { return s < 0; })) {
            fail(error, "manifest 'seeds' must be a non-empty array "
                        "of non-negative integers");
            return std::nullopt;
        }
        manifest.seeds.assign(list.begin(), list.end());
    }

    if (const JsonValue *oracle = root.find("oracle")) {
        if (!oracle->isBool()) {
            fail(error, "manifest 'oracle' must be a boolean");
            return std::nullopt;
        }
        manifest.oracle = oracle->boolValue;
    }
    return manifest;
}

SweepManifest
defaultSweepManifest()
{
    // Every family, small extents, two seeds and two machines:
    // 28 parameter combinations x 2 x 2 = 112 scenarios.
    SweepManifest manifest;
    manifest.seeds = {0, 1};
    manifest.machines = {"alpha", "parisc"};
    manifest.families = {
        {"stencil1d",
         {{"n", {48}}, {"radius", {1, 2}}, {"inplace", {0, 1}}}},
        {"stencil2d",
         {{"n", {20}},
          {"radius", {1, 2}},
          {"shape", {0, 1}},
          {"inplace", {0, 1}}}},
        {"stencil3d", {{"n", {10}}, {"inplace", {0, 1}}}},
        {"matmul", {{"n", {12}}, {"m", {12}}, {"order", {0, 1}}}},
        {"banded",
         {{"n", {16}}, {"m", {16}}, {"skew", {-1, 0, 1}}}},
        {"dmxpy", {{"n", {24}}, {"m", {24}}}},
        {"strided",
         {{"n", {32}},
          {"m", {12}},
          {"stride", {0, 1, 2}},
          {"terms", {1, 2}}}},
        {"irregular", {{"n", {24}}, {"m", {10}}, {"pattern", {1, 2}}}},
    };
    return manifest;
}

std::string
renderDefaultSweepManifest()
{
    SweepManifest manifest = defaultSweepManifest();
    JsonWriter w(2);
    w.beginObject();
    w.field("schema", "ujam-sweep-manifest-v1");
    w.key("seeds").beginArray();
    for (std::uint64_t seed : manifest.seeds)
        w.value(seed);
    w.endArray();
    w.field("oracle", manifest.oracle);
    w.key("machines").beginArray();
    for (const std::string &machine : manifest.machines)
        w.value(machine);
    w.endArray();
    w.key("pipelines").beginArray();
    for (const SweepPipeline &pipeline : manifest.pipelines) {
        w.beginObject();
        w.field("name", pipeline.name);
        w.field("lint", pipeline.lint);
        w.field("distribute", pipeline.distribute);
        w.field("interchange", pipeline.interchange);
        w.field("scalar_replace", pipeline.scalarReplace);
        w.field("prefetch", pipeline.prefetch);
        w.endObject();
    }
    w.endArray();
    w.key("families").beginArray();
    for (const SweepFamily &family : manifest.families) {
        w.beginObject();
        w.field("family", family.family);
        w.key("grid").beginObject();
        for (const auto &[param, values] : family.grid) {
            w.key(param).beginArray();
            for (std::int64_t value : values)
                w.value(value);
            w.endArray();
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

SweepResult
runSweep(const SweepManifest &manifest, std::size_t threads)
{
    std::vector<SweepJob> jobs = expandJobs(manifest);
    SweepResult result;
    result.oracle = manifest.oracle;
    result.rows.resize(jobs.size());
    parallelFor(jobs.size(), threads, [&](std::size_t i) {
        result.rows[i] = runJob(jobs[i]);
    });
    return result;
}

std::string
sweepResultJson(const SweepResult &result, int indent)
{
    // Census first: the numbers a reader (or a CI diff) wants before
    // the per-scenario detail.
    std::size_t validator_ok = 0;
    std::size_t truth_ok = 0;
    std::size_t rollbacks = 0;
    std::size_t lint_errors = 0;
    std::size_t lint_warnings = 0;
    std::size_t agree = 0;
    std::vector<std::string> family_order;
    std::map<std::string, std::array<std::size_t, 3>> by_family;
    for (const SweepRow &row : result.rows) {
        validator_ok += row.validatorOk;
        truth_ok += row.truthOk;
        rollbacks += row.rollbacks;
        lint_errors += row.lintErrors;
        lint_warnings += row.lintWarnings;
        agree += row.agree;
        if (!by_family.count(row.family))
            family_order.push_back(row.family);
        auto &cell = by_family[row.family];
        cell[0] += 1;
        cell[1] += row.agree;
        cell[2] += row.truthOk;
    }

    JsonWriter w(indent);
    w.beginObject();
    w.field("schema", "ujam-sweep-v1");
    w.field("oracle", result.oracle);
    w.key("census").beginObject();
    w.field("scenarios", static_cast<std::uint64_t>(result.rows.size()));
    w.field("validator_ok", static_cast<std::uint64_t>(validator_ok));
    w.field("truth_ok", static_cast<std::uint64_t>(truth_ok));
    w.field("rollbacks", static_cast<std::uint64_t>(rollbacks));
    w.field("lint_errors", static_cast<std::uint64_t>(lint_errors));
    w.field("lint_warnings",
            static_cast<std::uint64_t>(lint_warnings));
    w.key("model_tuner_agreement").beginObject();
    w.field("agree", static_cast<std::uint64_t>(agree));
    w.field("total", static_cast<std::uint64_t>(result.rows.size()));
    w.endObject();
    w.key("by_family").beginArray();
    for (const std::string &family : family_order) {
        const auto &cell = by_family[family];
        w.beginObject();
        w.field("family", family);
        w.field("scenarios", static_cast<std::uint64_t>(cell[0]));
        w.field("agree", static_cast<std::uint64_t>(cell[1]));
        w.field("truth_ok", static_cast<std::uint64_t>(cell[2]));
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.key("scenarios").beginArray();
    for (const SweepRow &row : result.rows) {
        w.beginObject();
        w.field("scenario", row.scenario);
        w.field("family", row.family);
        w.field("machine", row.machine);
        w.field("pipeline", row.pipeline);
        w.field("seed", static_cast<std::uint64_t>(row.seed));
        w.field("depth", static_cast<std::uint64_t>(row.depth));
        w.field("validator_ok", row.validatorOk);
        w.field("truth_ok", row.truthOk);
        if (!row.truthOk)
            w.field("truth_why", row.truthWhy);
        w.field("lint_errors",
                static_cast<std::uint64_t>(row.lintErrors));
        w.field("lint_warnings",
                static_cast<std::uint64_t>(row.lintWarnings));
        w.field("lint_notes",
                static_cast<std::uint64_t>(row.lintNotes));
        w.field("rollbacks",
                static_cast<std::uint64_t>(row.rollbacks));
        if (!row.rollbackDetail.empty()) {
            w.key("rollback_detail").beginArray();
            for (const std::string &detail : row.rollbackDetail)
                w.value(detail);
            w.endArray();
        }
        w.field("model_pick", row.modelPick);
        w.field("tuner_pick", row.tunerPick);
        w.field("agree", row.agree);
        w.field("baseline_cycles", row.baselineCycles);
        w.field("model_cycles", row.modelCycles);
        w.field("best_cycles", row.bestCycles);
        if (row.featureRow.empty())
            w.key("features").nullValue();
        else
            w.key("features").rawValue(row.featureRow);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
sweepFeatureRows(const SweepResult &result)
{
    std::string out;
    for (const SweepRow &row : result.rows) {
        if (row.featureRow.empty())
            continue;
        out += row.featureRow;
        out += "\n";
    }
    return out;
}

} // namespace ujam
