/**
 * @file
 * ujam-codegen: lower a DSL program to C, original and transformed
 * side by side, and optionally prove them equivalent on real
 * hardware.
 *
 *     ujam-codegen [--machine alpha|parisc|wide|wide-prefetch]
 *                  [--out DIR]
 *                  [--seed N] [--param name=value]... [--no-main]
 *                  [--fuse] [--distribute] [--interchange]
 *                  [--prefetch] [--json]
 *                  [--run] [--repeat K] [--cflags "FLAGS"]
 *                  (FILE | --suite NAME | --list)
 *
 * --suite accepts a Table-2 loop name ("dmxpy0") or a generated
 * scenario name ("stencil2d:radius=2:7"); --list enumerates both
 * corpora and exits. --seed, --param, --no-main and the stage
 * switches set the service's seed, params, emit_main and pipeline
 * options, with the same checks.
 *
 * The input program runs through the optimization pipeline; both the
 * untransformed and the transformed program are emitted as
 * self-contained C99 translation units into DIR (default ".") as
 * <stem>.orig.c and <stem>.ujam.c. --json instead prints one JSON
 * document embedding both sources (the service's codegen payload).
 *
 * --run additionally compiles both variants with the host C compiler
 * (found via $UJAM_CC, else cc/gcc/clang on PATH) at -O0 with FP
 * contraction off, runs them, and verifies three ways: each binary's
 * checksum against its own interpreter oracle, and the two binaries
 * against each other. Stage switches that reorder floating-point
 * arithmetic across iterations (--interchange) can legitimately
 * break the third comparison; the default pipeline keeps it
 * bit-exact.
 *
 * --repeat K runs each compiled binary K times (after one discarded
 * warmup) and reports the min and median wall time per variant, so a
 * single noisy sample never decides a comparison. --json adds the
 * host compiler's identity (`cc --version` first line) when --run is
 * requested, keeping measured numbers attributable to a toolchain.
 *
 * Exit status: 0 success; 1 a --run verification failed;
 * 2 usage, I/O or parse errors; 3 --run could not compile or execute
 * a variant (including: no host compiler).
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <chrono>
#include <fstream>
#include <limits>

#include "codegen/c_emitter.hh"
#include "codegen/checksum.hh"
#include "codegen/compile.hh"
#include "driver/driver.hh"
#include "ir/interp.hh"
#include "report/report.hh"
#include "scenarios/corpus_hook.hh"
#include "service/protocol.hh"
#include "support/diagnostics.hh"
#include "support/string_utils.hh"

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "usage: ujam-codegen [--machine alpha|parisc|wide|wide-prefetch] "
        "[--out DIR] "
        "[--seed N] [--param name=value]... [--no-main] [--fuse] "
        "[--distribute] [--interchange] [--prefetch] [--json] [--run] "
        "[--repeat K] [--cflags FLAGS] "
        "(FILE | --suite NAME | --list)\n");
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    return static_cast<bool>(out);
}

/** @return The source's base name without directories or extension. */
std::string
stemOf(const std::string &path)
{
    std::size_t slash = path.find_last_of('/');
    std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    std::size_t dot = base.rfind(".ujam");
    if (dot != std::string::npos && dot + 5 == base.size())
        base = base.substr(0, dot);
    return base.empty() ? "program" : base;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ujam;

    MachineModel machine = MachineModel::decAlpha21064();
    ServiceRequest request; // the knobs: config and codegen
    const PipelineConfig &config = request.config;
    const CodegenOptions &codegen = request.codegen;
    std::string out_dir = ".";
    std::string suite_name;
    std::string path;
    std::string cflags;
    bool json = false;
    bool run = false;
    int repeat = 1;

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
        } else if (std::strcmp(arg, "--out") == 0 && i + 1 < argc) {
            out_dir = argv[++i];
        } else if (std::strcmp(arg, "--seed") == 0 && i + 1 < argc) {
            bad_value = applyRequestOption(request, "seed", argv[++i]);
        } else if (std::strcmp(arg, "--param") == 0 && i + 1 < argc) {
            bad_value = applyRequestOption(request, "params", argv[++i]);
        } else if (std::strcmp(arg, "--no-main") == 0) {
            bad_value = applyRequestOption(request, "emit_main", "false");
        } else if (std::strcmp(arg, "--fuse") == 0) {
            bad_value = applyRequestOption(request, "fuse", "true");
        } else if (std::strcmp(arg, "--distribute") == 0) {
            bad_value = applyRequestOption(request, "distribute", "true");
        } else if (std::strcmp(arg, "--interchange") == 0) {
            bad_value = applyRequestOption(request, "interchange", "true");
        } else if (std::strcmp(arg, "--prefetch") == 0) {
            bad_value = applyRequestOption(request, "prefetch", "true");
        } else if (std::strcmp(arg, "--json") == 0) {
            json = true;
        } else if (std::strcmp(arg, "--run") == 0) {
            run = true;
        } else if (std::strcmp(arg, "--repeat") == 0 && i + 1 < argc) {
            if (!parseCount(argv[++i], repeat) || repeat < 1 ||
                repeat > 1000) {
                usage();
                return 2;
            }
        } else if (std::strcmp(arg, "--cflags") == 0 && i + 1 < argc) {
            cflags = argv[++i];
        } else if (std::strcmp(arg, "--suite") == 0 && i + 1 < argc) {
            suite_name = argv[++i];
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
            std::fprintf(stderr, "ujam-codegen: %s\n", bad_value.c_str());
            return 2;
        }
    }
    if (path.empty() == suite_name.empty()) {
        usage();
        return 2;
    }
    if (run && !codegen.emitMain) {
        std::fprintf(stderr,
                     "ujam-codegen: --run requires the generated "
                     "main() (drop --no-main)\n");
        return 2;
    }

    Program program;
    std::string stem;
    try {
        bool corpus = !suite_name.empty();
        program = loadProgramInput(corpus ? suite_name : path, corpus,
                                   true)
                      .program;
        stem = corpus ? corpusFileStem(suite_name) : stemOf(path);
    } catch (const FatalError &err) {
        std::fprintf(stderr, "%s\n", err.what());
        return 2;
    }

    try {
        PipelineResult result = optimizeProgram(program, machine,
                                                config);

        auto now = [] { return std::chrono::steady_clock::now(); };
        auto seconds = [](auto a, auto b) {
            return std::chrono::duration<double>(b - a).count();
        };

        CodegenOptions orig_opts = codegen;
        orig_opts.variantLabel = "original";
        CodegenOptions trans_opts = codegen;
        trans_opts.variantLabel = "transformed";

        auto t0 = now();
        CodegenUnit original = emitCProgram(program, orig_opts);
        auto t1 = now();
        CodegenUnit transformed =
            emitCProgram(result.program, trans_opts);
        auto t2 = now();

        if (json) {
            std::printf("%s\n",
                        codegenResultJson(result, original, transformed,
                                          codegen.seed,
                                          run ? hostSanitizerLabel()
                                              : std::string(),
                                          run ? hostCompilerVersion()
                                              : std::string())
                            .c_str());
        } else {
            std::string orig_path =
                concat(out_dir, "/", stem, ".orig.c");
            std::string trans_path =
                concat(out_dir, "/", stem, ".ujam.c");
            if (!writeFile(orig_path, original.source) ||
                !writeFile(trans_path, transformed.source)) {
                std::fprintf(stderr,
                             "ujam-codegen: cannot write under '%s'\n",
                             out_dir.c_str());
                return 2;
            }
            std::printf("wrote %s\nwrote %s\n", orig_path.c_str(),
                        trans_path.c_str());
        }

        if (!run)
            return 0;

        // Harden the differential compile with UBSan+ASan when the
        // host toolchain supports them; explicit --cflags win.
        std::string run_flags = cflags;
        if (run_flags.empty()) {
            std::string sanitize = hostSanitizerFlags();
            if (!sanitize.empty()) {
                run_flags = concat(kDefaultCFlags, " ", sanitize);
                std::printf("sanitizers: %s\n",
                            hostSanitizerLabel().c_str());
            }
        }

        int warmup = repeat > 1 ? 1 : 0;
        VariantRun orig_run =
            compileAndRun(original.source, "original", run_flags,
                          codegen.seed, repeat, warmup);
        VariantRun trans_run =
            compileAndRun(transformed.source, "transformed", run_flags,
                          codegen.seed, repeat, warmup);
        for (const auto *variant_run : {&orig_run, &trans_run}) {
            if (!variant_run->ok) {
                std::fprintf(stderr, "ujam-codegen: %s\n",
                             variant_run->error.c_str());
                return 3;
            }
        }

        // Each binary against its own interpreter oracle. The oracle
        // runs double as the dynamic halo-slack guard: tracking is on
        // only for variants without a static bounds certificate.
        Interpreter orig_interp(program, codegen.paramOverrides);
        orig_interp.trackSubscriptRanges(!original.boundsProven);
        orig_interp.seedArrays(codegen.seed);
        orig_interp.run();
        std::uint64_t orig_oracle =
            interpreterChecksum(orig_interp, program);
        Interpreter trans_interp(result.program,
                                 codegen.paramOverrides);
        trans_interp.trackSubscriptRanges(!transformed.boundsProven);
        trans_interp.seedArrays(codegen.seed);
        trans_interp.run();
        std::uint64_t trans_oracle =
            interpreterChecksum(trans_interp, result.program);

        // The halo-slack guard: every observed subscript must stay
        // within extent + halo. The interpreter faults past that
        // bound too, so a firing means the interpreter's and the
        // emitter's halo arithmetic have diverged -- defense in
        // depth, not the primary check. The useful product on the
        // unproven path is the slack report: how close this seed's
        // run came to the halo edge. Proven variants skip both; the
        // certificate covers every reachable subscript, not just this
        // seed's.
        int slack_failures = 0;
        auto check_slack = [&](const char *label,
                               const Interpreter &interp,
                               const Program &prog) {
            std::int64_t tightest =
                std::numeric_limits<std::int64_t>::max();
            std::string tightest_where;
            for (const auto &[name, dims] :
                 interp.observedSubscriptRanges()) {
                if (!prog.hasArray(name))
                    continue;
                const ArrayDecl &decl = prog.array(name);
                for (std::size_t d = 0;
                     d < dims.size() && d < decl.extents.size(); ++d) {
                    std::int64_t extent =
                        decl.extents[d].evaluate(interp.params());
                    std::int64_t halo = ArrayLayout::haloElems;
                    std::int64_t lo_slack = dims[d].min - (1 - halo);
                    std::int64_t hi_slack =
                        extent + halo - dims[d].max;
                    std::int64_t slack = std::min(lo_slack, hi_slack);
                    if (slack < tightest) {
                        tightest = slack;
                        tightest_where = concat(name, " dim ", d + 1);
                    }
                    if (lo_slack >= 0 && hi_slack >= 0)
                        continue;
                    std::fprintf(
                        stderr,
                        "ujam-codegen: halo-slack: %s array '%s' "
                        "dimension %zu observed [%lld, %lld] outside "
                        "extent %lld + halo %lld\n",
                        label, name.c_str(), d + 1,
                        static_cast<long long>(dims[d].min),
                        static_cast<long long>(dims[d].max),
                        static_cast<long long>(extent),
                        static_cast<long long>(halo));
                    ++slack_failures;
                }
            }
            if (!tightest_where.empty()) {
                std::printf("halo-slack: %s unproven; tightest "
                            "observed slack %lld elem(s) (%s)\n",
                            label, static_cast<long long>(tightest),
                            tightest_where.c_str());
            }
        };
        if (!original.boundsProven)
            check_slack("original", orig_interp, program);
        if (!transformed.boundsProven)
            check_slack("transformed", trans_interp, result.program);
        if (original.boundsProven && transformed.boundsProven) {
            std::printf("bounds certificate: proven statically; "
                        "halo-slack guard skipped\n");
        }

        std::vector<CodegenVariantTiming> timings = {
            {"original", seconds(t0, t1), orig_run.compileSeconds,
             orig_run.runSeconds, orig_run.checksum},
            {"transformed", seconds(t1, t2), trans_run.compileSeconds,
             trans_run.runSeconds, trans_run.checksum},
        };
        std::printf("%s", codegenTimingReport(timings).c_str());
        if (repeat > 1) {
            for (const auto *variant_run : {&orig_run, &trans_run}) {
                const char *label =
                    variant_run == &orig_run ? "original"
                                             : "transformed";
                std::printf("%s: median %.3f ms / min %.3f ms over "
                            "%d repeats%s%s\n",
                            label, variant_run->runSeconds * 1e3,
                            variant_run->runSecondsMin * 1e3, repeat,
                            variant_run->timingNote.empty() ? ""
                                                            : "; ",
                            variant_run->timingNote.c_str());
            }
        }

        int failures = 0;
        auto check = [&](const char *what, std::uint64_t got,
                         std::uint64_t want) {
            if (got != want) {
                std::fprintf(stderr,
                             "ujam-codegen: %s: %s != %s\n", what,
                             checksumHex(got).c_str(),
                             checksumHex(want).c_str());
                ++failures;
            }
        };
        check("original binary vs interpreter", orig_run.checksum,
              orig_oracle);
        check("transformed binary vs interpreter", trans_run.checksum,
              trans_oracle);
        check("transformed binary vs original binary",
              trans_run.checksum, orig_run.checksum);
        failures += slack_failures;
        if (failures == 0)
            std::printf("verified: compiled variants and interpreter "
                        "agree bit-exactly (checksum %s)\n",
                        checksumHex(orig_run.checksum).c_str());
        return failures == 0 ? 0 : 1;
    } catch (const FatalError &err) {
        std::fprintf(stderr, "%s\n", err.what());
        return 2;
    }
}
