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
 * before and after. The knob flags set the service's options of the
 * same names (service/protocol.hh), with the same checks. Exits 2 on
 * a usage error (a bad flag or value, a second FILE), 1 on a parse or
 * validation error.
 */

#include <cstdio>
#include <cstring>

#include "analysis/render.hh"
#include "core/optimizer.hh"
#include "driver/driver.hh"
#include "ir/printer.hh"
#include "report/report.hh"
#include "scenarios/corpus_hook.hh"
#include "service/protocol.hh"
#include "support/diagnostics.hh"
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
    ServiceRequest request; // the knobs
    // This driver's default search bound is 4, not the library's 8.
    applyRequestOption(request, "max_unroll", "4");
    const PipelineConfig &config = request.config;
    bool simulate = false;
    bool report = false;
    const char *path = nullptr;

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
        } else if (std::strcmp(arg, "--simulate") == 0) {
            simulate = true;
        } else if (std::strcmp(arg, "--report") == 0) {
            report = true;
        } else if (std::strcmp(arg, "--interchange") == 0) {
            bad_value = applyRequestOption(request, "interchange", "true");
        } else if (std::strcmp(arg, "--prefetch") == 0) {
            bad_value = applyRequestOption(request, "prefetch", "true");
        } else if (std::strcmp(arg, "--fuse") == 0) {
            bad_value = applyRequestOption(request, "fuse", "true");
        } else if (std::strcmp(arg, "--distribute") == 0) {
            bad_value = applyRequestOption(request, "distribute", "true");
        } else if (std::strcmp(arg, "--max-unroll") == 0 && i + 1 < argc) {
            bad_value = applyRequestOption(request, "max_unroll", argv[++i]);
        } else if (std::strncmp(arg, "--lint=", 7) == 0) {
            bad_value = applyRequestOption(request, "lint", arg + 7);
        } else if (arg[0] == '-' || path) {
            usage();
            return 2;
        } else {
            path = arg;
        }
        if (!bad_value.empty()) {
            std::fprintf(stderr, "optimize_file: %s\n", bad_value.c_str());
            return 2;
        }
    }
    if (!path) {
        usage();
        return 2;
    }

    try {
        LoadedProgram input = loadProgramInput(path, false, true);
        const Program &program = input.program;

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
        if (config.lint != LintMode::Off &&
            !result.lint.diagnostics.empty()) {
            std::fprintf(stderr, "%s",
                         renderText(result.lint, input.source).c_str());
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
