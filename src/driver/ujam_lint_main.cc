/**
 * @file
 * ujam-lint: run the static analyzer over DSL files.
 *
 *     ujam-lint [--format=text|json|sarif]
 *               [--machine alpha|parisc|wide|wide-prefetch]
 *               [--max-unroll N]
 *               [--min-severity=note|warn|error] [--suite [NAME]]
 *               [--baseline FILE] [--baseline-write FILE]
 *               [--explain RULE] [--list] [FILE...]
 *
 * Each FILE is parsed and analyzed; a bare --suite additionally
 * analyzes every built-in evaluation-suite workload, --suite NAME
 * one Table-2 loop ("dmxpy0") or generated scenario
 * ("stencil2d:radius=2:7"), and --list enumerates both corpora and
 * exits. --max-unroll and --min-severity take the service's
 * max_unroll and min_severity values. Text output quotes the
 * offending source lines; json emits the service's lint document per
 * input (an array when there are several); sarif emits one 2.1.0 log
 * with one run per input, true end columns and machine-applicable
 * fixes.
 *
 * --baseline FILE suppresses every finding recorded in FILE (see
 * findings_baseline.hh), so only new findings surface -- the CI
 * "no new findings" gate. --baseline-write FILE records the current
 * findings instead of reporting them. --explain RULE prints the
 * catalog entry for one rule (e.g. UJ015) and exits.
 *
 * Exit status: 0 clean (or warnings/notes only), 1 when any error
 * finding was reported, 2 on usage, I/O or parse errors.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "analysis/findings_baseline.hh"
#include "analysis/linter.hh"
#include "analysis/render.hh"
#include "analysis/rule.hh"
#include "report/report.hh"
#include "scenarios/corpus_hook.hh"
#include "service/protocol.hh"
#include "support/diagnostics.hh"
#include "support/json.hh"
#include "workloads/suite.hh"

namespace
{

enum class Format
{
    Text,
    Json,
    Sarif
};

void
usage()
{
    std::fprintf(
        stderr,
        "usage: ujam-lint [--format=text|json|sarif] "
        "[--machine alpha|parisc|wide|wide-prefetch] [--max-unroll N] "
        "[--min-severity=note|warn|error] [--suite [NAME]] "
        "[--baseline FILE] [--baseline-write FILE] "
        "[--explain RULE] [--list] [FILE...]\n");
}

/** Print one rule's catalog entry; return false when unknown. */
bool
explainRule(const std::string &rule_id)
{
    for (const auto &rule : ujam::lintRules()) {
        if (rule_id != rule->id())
            continue;
        std::printf("%s (%s)\n  %s\n\n%s\n", rule->id(),
                    ujam::lintSeverityName(rule->defaultSeverity()),
                    rule->summary(), rule->details());
        return true;
    }
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ujam;

    MachineModel machine = MachineModel::decAlpha21064();
    Format format = Format::Text;
    ServiceRequest request; // the knobs; lint reads config.lintOptions
    bool lint_suite = false;
    std::string suite_name;
    const char *baseline_path = nullptr;
    const char *baseline_write_path = nullptr;
    std::vector<const char *> paths;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        std::string bad_value; // the service's message for a knob flag
        if (std::strncmp(arg, "--format=", 9) == 0) {
            std::string name = arg + 9;
            if (name == "text") {
                format = Format::Text;
            } else if (name == "json") {
                format = Format::Json;
            } else if (name == "sarif") {
                format = Format::Sarif;
            } else {
                usage();
                return 2;
            }
        } else if (std::strcmp(arg, "--machine") == 0 && i + 1 < argc) {
            std::optional<MachineModel> preset = machinePreset(argv[++i]);
            if (!preset) {
                usage();
                return 2;
            }
            machine = *preset;
        } else if (std::strcmp(arg, "--max-unroll") == 0 &&
                   i + 1 < argc) {
            bad_value = applyRequestOption(request, "max_unroll", argv[++i]);
        } else if (std::strncmp(arg, "--min-severity=", 15) == 0) {
            bad_value = applyRequestOption(request, "min_severity", arg + 15);
        } else if (std::strcmp(arg, "--suite") == 0) {
            // --suite NAME analyzes one Table-2 loop or scenario; a
            // bare --suite analyzes every Table-2 loop.
            if (i + 1 < argc && argv[i + 1][0] != '-')
                suite_name = argv[++i];
            else
                lint_suite = true;
        } else if (std::strcmp(arg, "--list") == 0) {
            std::printf("%s", renderCorpusList().c_str());
            return 0;
        } else if (std::strcmp(arg, "--baseline") == 0 &&
                   i + 1 < argc) {
            baseline_path = argv[++i];
        } else if (std::strcmp(arg, "--baseline-write") == 0 &&
                   i + 1 < argc) {
            baseline_write_path = argv[++i];
        } else if (std::strcmp(arg, "--explain") == 0 && i + 1 < argc) {
            const char *rule_id = argv[++i];
            if (!explainRule(rule_id)) {
                std::fprintf(stderr,
                             "ujam-lint: unknown rule '%s'\n", rule_id);
                return 2;
            }
            return 0;
        } else if (arg[0] == '-') {
            usage();
            return 2;
        } else {
            paths.push_back(arg);
        }
        if (!bad_value.empty()) {
            std::fprintf(stderr, "ujam-lint: %s\n", bad_value.c_str());
            return 2;
        }
    }
    if (paths.empty() && !lint_suite && suite_name.empty()) {
        usage();
        return 2;
    }

    // (source text, lint result) per analyzed input. The linter
    // reports on invalid programs, so inputs load unvalidated.
    std::vector<std::pair<std::string, LintResult>> runs;
    auto lint = [&](const std::string &input, bool corpus) {
        LoadedProgram loaded = loadProgramInput(input, corpus, false);
        runs.emplace_back(std::move(loaded.source),
                          lintProgram(loaded.program, machine,
                                      request.config.lintOptions));
    };
    try {
        for (const char *path : paths)
            lint(path, false);
        if (lint_suite) {
            for (const SuiteLoop &loop : testSuite())
                lint(loop.name, true);
        }
        if (!suite_name.empty())
            lint(suite_name, true);
    } catch (const FatalError &err) {
        std::fprintf(stderr, "%s\n", err.what());
        return 2;
    }

    if (baseline_path) {
        std::ifstream in(baseline_path);
        if (!in) {
            std::fprintf(stderr,
                         "ujam-lint: cannot open baseline '%s'\n",
                         baseline_path);
            return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        FindingsBaseline baseline = parseBaseline(text.str());
        for (auto &[source, result] : runs)
            applyBaseline(result, baseline);
    }

    if (baseline_write_path) {
        std::vector<LintResult> results;
        for (const auto &[source, result] : runs)
            results.push_back(result);
        std::ofstream out(baseline_write_path);
        if (!out) {
            std::fprintf(stderr,
                         "ujam-lint: cannot write baseline '%s'\n",
                         baseline_write_path);
            return 2;
        }
        out << renderBaseline(results);
        return 0;
    }

    bool any_errors = false;
    for (const auto &[source, result] : runs)
        any_errors |= result.errorCount() > 0;

    switch (format) {
      case Format::Text:
        for (const auto &[source, result] : runs)
            std::printf("%s", renderText(result, source).c_str());
        break;
      case Format::Json:
        if (runs.size() == 1) {
            std::printf("%s\n",
                        lintResultJson(runs.front().second).c_str());
        } else {
            JsonWriter json;
            json.beginArray();
            for (const auto &[source, result] : runs)
                json.rawValue(lintResultJson(result));
            json.endArray();
            std::printf("%s\n", json.str().c_str());
        }
        break;
      case Format::Sarif: {
        std::vector<std::pair<LintResult, std::string>> sarif_runs;
        for (auto &[source, result] : runs)
            sarif_runs.emplace_back(std::move(result),
                                    std::move(source));
        std::printf("%s", renderSarifRuns(sarif_runs).c_str());
        break;
      }
    }
    return any_errors ? 1 : 0;
}
