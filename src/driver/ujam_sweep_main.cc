/**
 * @file
 * ujam-sweep: run a scenario sweep manifest through the full stack.
 *
 *     ujam-sweep [--manifest FILE] [--threads N] [--json]
 *                [--out FILE] [--log-features FILE]
 *                [--print-manifest] [--list]
 *
 * Without --manifest the built-in default manifest runs: every
 * scenario family over a small parameter grid, two seeds and two
 * machine presets (a bit over a hundred scenarios). Each expanded
 * scenario goes through generation, structural validation,
 * ground-truth conformance, the optimization pipeline (differential
 * oracle on unless the manifest turns it off) and the model-mode
 * autotuner; the result is the "ujam-sweep-v1" document -- census
 * first, then one row per scenario.
 *
 * The document is deterministic: rows are index-addressed, every
 * per-scenario pipeline runs single-threaded, and no wall-clock
 * field is emitted, so the same manifest yields bit-identical bytes
 * at any --threads value.
 *
 * --json prints the document to stdout (the default prints the
 * census as text); --out also writes it to FILE. --log-features
 * appends one ujam-tune-features-v1 NDJSON row per scenario, the
 * same schema ujam-tune --log-features emits. --print-manifest
 * prints the default manifest as JSON (a starting point for custom
 * sweeps); --list prints the corpus and scenario-family catalog.
 *
 * Exit status: 0 all scenarios passed (validator + ground truth, and
 * zero rollbacks when the oracle is on); 1 some scenario failed;
 * 2 usage, I/O or manifest errors.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "scenarios/corpus_hook.hh"
#include "scenarios/sweep.hh"
#include "support/diagnostics.hh"
#include "support/string_utils.hh"

namespace
{

void
usage()
{
    std::fprintf(stderr,
                 "usage: ujam-sweep [--manifest FILE] [--threads N] "
                 "[--json] [--out FILE] [--log-features FILE] "
                 "[--print-manifest] [--list]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ujam;

    std::string manifest_path;
    std::string out_path;
    std::string features_path;
    std::size_t threads = 0;
    bool json = false;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--manifest") == 0 && i + 1 < argc) {
            manifest_path = argv[++i];
        } else if (std::strcmp(arg, "--threads") == 0 &&
                   i + 1 < argc) {
            if (!parseCount(argv[++i], threads)) {
                usage();
                return 2;
            }
        } else if (std::strcmp(arg, "--json") == 0) {
            json = true;
        } else if (std::strcmp(arg, "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(arg, "--log-features") == 0 &&
                   i + 1 < argc) {
            features_path = argv[++i];
        } else if (std::strcmp(arg, "--print-manifest") == 0) {
            std::printf("%s\n", renderDefaultSweepManifest().c_str());
            return 0;
        } else if (std::strcmp(arg, "--list") == 0) {
            std::printf("%s", renderCorpusList().c_str());
            return 0;
        } else {
            usage();
            return 2;
        }
    }

    SweepManifest manifest;
    if (manifest_path.empty()) {
        manifest = defaultSweepManifest();
    } else {
        std::ifstream in(manifest_path);
        if (!in) {
            std::fprintf(stderr, "ujam-sweep: cannot open '%s'\n",
                         manifest_path.c_str());
            return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        std::string error;
        std::optional<SweepManifest> parsed =
            parseSweepManifest(text.str(), &error);
        if (!parsed) {
            std::fprintf(stderr, "ujam-sweep: %s: %s\n",
                         manifest_path.c_str(), error.c_str());
            return 2;
        }
        manifest = std::move(*parsed);
    }

    SweepResult result;
    try {
        result = runSweep(manifest, threads);
    } catch (const FatalError &err) {
        std::fprintf(stderr, "ujam-sweep: %s\n", err.what());
        return 2;
    }

    if (!out_path.empty()) {
        std::ofstream out(out_path, std::ios::binary);
        out << sweepResultJson(result, 1) << "\n";
        if (!out) {
            std::fprintf(stderr, "ujam-sweep: cannot write '%s'\n",
                         out_path.c_str());
            return 2;
        }
    }
    if (!features_path.empty()) {
        std::ofstream out(features_path, std::ios::app);
        out << sweepFeatureRows(result);
        if (!out) {
            std::fprintf(stderr, "ujam-sweep: cannot write '%s'\n",
                         features_path.c_str());
            return 2;
        }
    }

    std::size_t validator_ok = 0;
    std::size_t truth_ok = 0;
    std::size_t rollbacks = 0;
    std::size_t agree = 0;
    for (const SweepRow &row : result.rows) {
        validator_ok += row.validatorOk;
        truth_ok += row.truthOk;
        rollbacks += row.rollbacks;
        agree += row.agree;
        if (!row.truthOk)
            std::fprintf(stderr,
                         "ujam-sweep: %s [%s/%s]: ground truth: %s\n",
                         row.scenario.c_str(), row.machine.c_str(),
                         row.pipeline.c_str(), row.truthWhy.c_str());
    }

    if (json) {
        std::printf("%s\n", sweepResultJson(result).c_str());
    } else {
        std::printf("sweep: %zu scenarios, %zu validator ok, "
                    "%zu ground truth ok, %zu rollbacks, "
                    "model==tuner on %zu/%zu (oracle %s)\n",
                    result.rows.size(), validator_ok, truth_ok,
                    rollbacks, agree, result.rows.size(),
                    result.oracle ? "on" : "off");
    }

    bool clean = validator_ok == result.rows.size() &&
                 truth_ok == result.rows.size() &&
                 (!result.oracle || rollbacks == 0);
    return clean ? 0 : 1;
}
