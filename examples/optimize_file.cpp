/**
 * @file
 * A command-line driver: optimize every nest of a DSL file.
 *
 *     optimize_file [--machine alpha|parisc|wide|wide-prefetch]
 *                   [--simulate] [--report] [--interchange] [--prefetch]
 *                   [--fuse] [--distribute] [--max-unroll N]
 *                   [--lint=off|warn|strict] FILE
 *
 * Reads the program, runs the optimizer on each nest, applies
 * unroll-and-jam plus scalar replacement, prints the transformed
 * program to stdout, and (with --simulate) reports simulated cycles
 * before and after. Exits nonzero on parse/validation errors.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "analysis/render.hh"
#include "core/optimizer.hh"
#include "driver/driver.hh"
#include "ir/printer.hh"
#include "ir/validate.hh"
#include "report/report.hh"
#include "support/diagnostics.hh"
#include "parser/parser.hh"
#include "sim/simulator.hh"

namespace
{

void
usage()
{
    std::fprintf(stderr,
                 "usage: optimize_file "
                 "[--machine alpha|parisc|wide|wide-prefetch] "
                 "[--simulate] [--report] [--interchange] [--prefetch] "
                 "[--fuse] [--distribute] [--max-unroll N] "
                 "[--lint=off|warn|strict] FILE\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ujam;

    MachineModel machine = MachineModel::decAlpha21064();
    bool simulate = false;
    bool report = false;
    bool interchange = false;
    bool prefetch = false;
    bool fuse = false;
    bool distribute = false;
    std::int64_t max_unroll = 4;
    LintMode lint = LintMode::Off;
    const char *path = nullptr;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--machine") == 0 && i + 1 < argc) {
            std::optional<MachineModel> preset = machinePreset(argv[++i]);
            if (!preset) {
                usage();
                return 2;
            }
            machine = *preset;
        } else if (std::strcmp(argv[i], "--simulate") == 0) {
            simulate = true;
        } else if (std::strcmp(argv[i], "--report") == 0) {
            report = true;
        } else if (std::strcmp(argv[i], "--interchange") == 0) {
            interchange = true;
        } else if (std::strcmp(argv[i], "--prefetch") == 0) {
            prefetch = true;
        } else if (std::strcmp(argv[i], "--fuse") == 0) {
            fuse = true;
        } else if (std::strcmp(argv[i], "--distribute") == 0) {
            distribute = true;
        } else if (std::strcmp(argv[i], "--max-unroll") == 0 &&
                   i + 1 < argc) {
            max_unroll = std::atoll(argv[++i]);
        } else if (std::strncmp(argv[i], "--lint=", 7) == 0) {
            std::string mode = argv[i] + 7;
            if (mode == "off") {
                lint = LintMode::Off;
            } else if (mode == "warn") {
                lint = LintMode::Warn;
            } else if (mode == "strict") {
                lint = LintMode::Strict;
            } else {
                usage();
                return 2;
            }
        } else if (argv[i][0] == '-') {
            usage();
            return 2;
        } else {
            path = argv[i];
        }
    }
    if (!path) {
        usage();
        return 2;
    }

    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "optimize_file: cannot open '%s'\n", path);
        return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();

    try {
        Program program = parseProgram(text.str(), path);
        std::vector<std::string> problems = validateProgram(program);
        if (!problems.empty()) {
            for (const std::string &problem : problems)
                std::fprintf(stderr, "error: %s\n", problem.c_str());
            return 1;
        }

        PipelineConfig config;
        config.optimizer.maxUnroll = max_unroll;
        config.interchange = interchange;
        config.prefetch = prefetch;
        config.fuse = fuse;
        config.distribute = distribute;
        config.lint = lint;
        config.lintOptions.maxUnroll = max_unroll;

        if (report) {
            for (const LoopNest &nest : program.nests()) {
                std::fprintf(stderr, "%s\n",
                             analysisReport(nest, machine,
                                            config.optimizer)
                                 .c_str());
            }
        }

        PipelineResult result =
            optimizeProgram(program, machine, config);
        if (lint != LintMode::Off && !result.lint.diagnostics.empty()) {
            std::fprintf(stderr, "%s",
                         renderText(result.lint, text.str()).c_str());
        }
        std::fprintf(stderr, "%s", result.summary().c_str());
        std::printf("%s", renderProgram(result.program).c_str());

        if (simulate) {
            SimResult before = simulateProgram(program, machine);
            SimResult after = simulateProgram(result.program, machine);
            std::fprintf(stderr,
                         "simulated on %s: %.3g -> %.3g cycles "
                         "(%.2fx)\n",
                         machine.name.c_str(), before.cycles,
                         after.cycles, before.cycles / after.cycles);
        }
    } catch (const FatalError &err) {
        std::fprintf(stderr, "%s\n", err.what());
        return 1;
    } catch (const PanicError &err) {
        std::fprintf(stderr, "%s\n", err.what());
        return 1;
    }
    return 0;
}
