/**
 * @file
 * ujam-tune: measured autotuning over the model's unroll picks.
 *
 *     ujam-tune [--machine alpha|parisc|wide|wide-prefetch]
 *               [--budget-ms N]
 *               [--neighborhood N] [--repeats N] [--warmup N]
 *               [--seed N] [--measure wall|model] [--cflags FLAGS]
 *               [--json] [--log-features FILE]
 *               (FILE | --suite [NAME] | --list)
 *
 * --suite NAME accepts a Table-2 loop name or a generated scenario
 * name like "stencil2d:radius=2:7"; --list enumerates both corpora
 * and exits. --budget-ms, --neighborhood, --repeats, --warmup, --seed
 * and --measure set the service's tune_* and seed options, with the
 * same checks.
 *
 * For every nest of the input program (or of each Table-2 suite loop
 * when --suite is given without a name) the tuner seeds a
 * neighborhood search at the balance model's Eq.-1 pick, measures
 * each candidate through the shared compile-and-run harness
 * (--measure wall, the default) or the deterministic cycle simulator
 * (--measure model), and reports the measured-best vector, the
 * model-vs-measured delta per candidate and the (runtime, registers)
 * Pareto set.
 *
 * --log-features FILE appends one NDJSON row per tuned nest -- the
 * nest's static features plus the measured-best vector as the label
 * -- the raw material for learning a better pick.
 *
 * Exit status: 0 success (including a graceful self-skip when wall
 * mode finds no host C compiler); 2 usage, I/O or parse errors.
 */

#include <cstdio>
#include <cstring>
#include <fstream>

#include "scenarios/corpus_hook.hh"
#include "service/protocol.hh"
#include "support/diagnostics.hh"
#include "support/string_utils.hh"
#include "tune/autotuner.hh"
#include "workloads/suite.hh"

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "usage: ujam-tune [--machine alpha|parisc|wide|wide-prefetch] "
        "[--budget-ms N] [--neighborhood N] [--repeats N] "
        "[--warmup N] [--seed N] [--measure wall|model] "
        "[--cflags FLAGS] [--json] [--log-features FILE] "
        "(FILE | --suite [NAME] | --list)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ujam;

    MachineModel machine = MachineModel::decAlpha21064();
    ServiceRequest request; // the knobs; the CLI measures wall time
    TuneConfig &config = request.tune;
    std::string path;
    std::string suite_name;
    bool suite_all = false;
    bool json = false;
    std::string features_path;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        std::string bad_value; // the service's message for a knob flag
        if (std::strcmp(arg, "--machine") == 0 && i + 1 < argc) {
            std::optional<MachineModel> preset = machinePreset(argv[++i]);
            if (!preset) {
                usage();
                return 2;
            }
            machine = *preset;
        } else if (std::strcmp(arg, "--budget-ms") == 0 && i + 1 < argc) {
            bad_value = applyRequestOption(request, "tune_budget_ms",
                                           argv[++i]);
        } else if (std::strcmp(arg, "--neighborhood") == 0 &&
                   i + 1 < argc) {
            bad_value = applyRequestOption(request, "tune_neighborhood",
                                           argv[++i]);
        } else if (std::strcmp(arg, "--repeats") == 0 && i + 1 < argc) {
            bad_value = applyRequestOption(request, "tune_repeats",
                                           argv[++i]);
        } else if (std::strcmp(arg, "--warmup") == 0 && i + 1 < argc) {
            bad_value = applyRequestOption(request, "tune_warmup",
                                           argv[++i]);
        } else if (std::strcmp(arg, "--seed") == 0 && i + 1 < argc) {
            bad_value = applyRequestOption(request, "seed", argv[++i]);
        } else if (std::strcmp(arg, "--measure") == 0 && i + 1 < argc) {
            bad_value = applyRequestOption(request, "tune_measure",
                                           argv[++i]);
        } else if (std::strcmp(arg, "--cflags") == 0 && i + 1 < argc) {
            config.cflags = argv[++i];
        } else if (std::strcmp(arg, "--json") == 0) {
            json = true;
        } else if (std::strcmp(arg, "--log-features") == 0 &&
                   i + 1 < argc) {
            features_path = argv[++i];
        } else if (std::strcmp(arg, "--suite") == 0) {
            // --suite NAME tunes one Table-2 loop or scenario; a
            // bare --suite (next token is another option, or
            // nothing) tunes every Table-2 loop.
            if (i + 1 < argc && argv[i + 1][0] != '-')
                suite_name = argv[++i];
            else
                suite_all = true;
        } else if (std::strcmp(arg, "--list") == 0) {
            std::printf("%s", renderCorpusList().c_str());
            return 0;
        } else if (arg[0] == '-') {
            usage();
            return 2;
        } else if (path.empty()) {
            path = arg;
        } else {
            usage();
            return 2;
        }
        if (!bad_value.empty()) {
            std::fprintf(stderr, "ujam-tune: %s\n", bad_value.c_str());
            return 2;
        }
    }
    int sources = (path.empty() ? 0 : 1) +
                  (suite_name.empty() ? 0 : 1) + (suite_all ? 1 : 0);
    if (sources != 1) {
        usage();
        return 2;
    }

    std::vector<LoadedProgram> programs;
    try {
        if (suite_all) {
            for (const SuiteLoop &loop : testSuite())
                programs.push_back(loadProgramInput(loop.name, true, true));
        } else {
            bool corpus = !suite_name.empty();
            programs.push_back(loadProgramInput(
                corpus ? suite_name : path, corpus, true));
        }
    } catch (const FatalError &err) {
        std::fprintf(stderr, "%s\n", err.what());
        return 2;
    }

    std::ofstream features_out;
    if (!features_path.empty()) {
        features_out.open(features_path, std::ios::app);
        if (!features_out) {
            std::fprintf(stderr,
                         "ujam-tune: cannot open '%s' for append\n",
                         features_path.c_str());
            return 2;
        }
    }

    std::string json_out;
    if (json)
        json_out = "{\"schema\": \"ujam-tune-cli-v1\", "
                   "\"programs\": [";

    bool first = true;
    for (const LoadedProgram &entry : programs) {
        TuneResult result;
        try {
            result = tuneProgram(entry.program, machine, config);
        } catch (const FatalError &err) {
            std::fprintf(stderr, "ujam-tune: %s: %s\n",
                         entry.name.c_str(), err.what());
            return 2;
        }

        if (json) {
            if (!first)
                json_out += ", ";
            first = false;
            json_out += concat("{\"program\": \"", entry.name,
                               "\", \"tune\": ",
                               tuneResultJson(result, config), "}");
        } else if (result.skipped) {
            std::printf("%s: skipped: %s\n", entry.name.c_str(),
                        result.skipReason.c_str());
        } else {
            for (const NestTune &nest : result.nests) {
                std::string label = nest.name.empty()
                                        ? std::string("nest")
                                        : nest.name;
                std::printf(
                    "%s %s: model %s -> best %s "
                    "(model/best %sx%s; %zu/%zu measured%s)\n",
                    entry.name.c_str(), label.c_str(),
                    nest.modelPick.toString().c_str(),
                    nest.measuredBest.toString().c_str(),
                    formatFixed(nest.modelOverBest, 3).c_str(),
                    nest.modelOptimal ? ", model optimal" : "",
                    nest.measuredCount, nest.enumerated,
                    nest.budgetExhausted ? ", budget exhausted"
                                         : "");
            }
        }

        if (features_out.is_open() && !result.skipped) {
            for (const NestTune &nest : result.nests)
                features_out << tuneFeatureRowJson(entry.name, result,
                                                   nest)
                             << "\n";
        }
    }

    if (json) {
        json_out += "]}";
        std::printf("%s\n", json_out.c_str());
    }
    if (features_out.is_open()) {
        features_out.flush();
        if (!features_out) {
            std::fprintf(stderr,
                         "ujam-tune: failed writing '%s'\n",
                         features_path.c_str());
            return 2;
        }
    }
    return 0;
}
