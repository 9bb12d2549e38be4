#include "tune/autotuner.hh"

#include <algorithm>
#include <cmath>
#include <set>

#include "codegen/c_emitter.hh"
#include "codegen/checksum.hh"
#include "codegen/compile.hh"
#include "ir/interp.hh"
#include "sim/simulator.hh"
#include "support/diagnostics.hh"
#include "support/json.hh"
#include "support/timing.hh"

namespace ujam
{

namespace
{

/** @return A program with all decls/params but only the one nest. */
Program
isolateNest(const Program &program, const LoopNest &nest)
{
    Program solo;
    solo.setSourceName(program.sourceName());
    for (const ArrayDecl &decl : program.arrays())
        solo.declareArray(decl);
    for (const auto &[name, value] : program.paramDefaults())
        solo.setParamDefault(name, value);
    solo.addNest(nest);
    return solo;
}

/** @return Chebyshev distance between two equal-length vectors. */
std::int64_t
chebyshev(const IntVector &a, const IntVector &b)
{
    std::int64_t radius = 0;
    for (std::size_t k = 0; k < a.size(); ++k)
        radius = std::max<std::int64_t>(radius,
                                        std::llabs(a[k] - b[k]));
    return radius;
}

/**
 * Enumerate the Chebyshev ball of the given radius around the model
 * pick over the decision's considered dims, clamped to the safety
 * bounds. The pick and the zero vector are excluded (they are added
 * as explicit "model"/"baseline" candidates); the remainder comes
 * back sorted by (radius, lexicographic) so closest-first measurement
 * under a budget is deterministic.
 */
std::vector<IntVector>
neighborhoodOf(const UnrollDecision &decision, std::int64_t radius)
{
    const IntVector &pick = decision.unroll;
    const std::size_t depth = pick.size();
    const std::vector<std::size_t> &dims = decision.consideredLoops;
    std::vector<IntVector> out;
    if (dims.empty() || radius <= 0)
        return out;

    std::vector<std::int64_t> lo(dims.size()), hi(dims.size());
    for (std::size_t i = 0; i < dims.size(); ++i) {
        std::size_t k = dims[i];
        std::int64_t bound = k < decision.safetyBounds.size()
                                 ? decision.safetyBounds[k]
                                 : 0;
        lo[i] = std::max<std::int64_t>(0, pick[k] - radius);
        hi[i] = std::min(bound, pick[k] + radius);
    }

    std::vector<std::int64_t> counter = lo;
    while (true) {
        IntVector u(depth);
        for (std::size_t i = 0; i < dims.size(); ++i)
            u[dims[i]] = counter[i];
        if (u != pick && !u.isZero())
            out.push_back(u);
        std::size_t i = 0;
        for (; i < counter.size(); ++i) {
            if (++counter[i] <= hi[i])
                break;
            counter[i] = lo[i];
        }
        if (i == counter.size())
            break;
    }

    std::sort(out.begin(), out.end(),
              [&](const IntVector &a, const IntVector &b) {
                  std::int64_t ra = chebyshev(a, pick);
                  std::int64_t rb = chebyshev(b, pick);
                  if (ra != rb)
                      return ra < rb;
                  return a.lexLess(b);
              });
    return out;
}

TuneFeatures
featuresOf(const LoopNest &nest, const MachineModel &machine,
           const UnrollDecision &decision)
{
    TuneFeatures f;
    f.depth = nest.depth();
    f.bodyFlops = static_cast<double>(nest.bodyFlops());
    std::vector<Access> accesses = nest.accesses();
    f.accessCount = accesses.size();
    std::set<std::string> arrays;
    for (const Access &access : accesses)
        arrays.insert(access.ref.array());
    f.arrayCount = arrays.size();
    f.machineBalance = machine.machineBalance();
    f.originalBalance = decision.originalBalance;
    f.pickBalance = decision.predictedBalance;
    f.pickRegisters = decision.registers;
    f.safetyBounds = decision.safetyBounds;
    return f;
}

/** Measure one already-transformed program. Fills runtime/valid. */
void
measureCandidate(TuneCandidate &cand, const Program &transformed,
                 const MachineModel &machine, const TuneConfig &config,
                 std::uint64_t oracle_checksum)
{
    cand.measured = true;
    if (config.measure == MeasureMode::Model) {
        SimResult sim =
            simulateProgram(transformed, machine, {}, config.seed);
        cand.runtime = sim.cycles;
        cand.runtimeMin = sim.cycles;
        cand.valid = true;
        return;
    }

    CodegenOptions opts;
    opts.seed = config.seed;
    opts.variantLabel = concat("tune ", cand.unroll.toString());
    CodegenUnit unit = emitCProgram(transformed, opts);
    std::string flags =
        config.cflags.empty() ? kMeasureCFlags : config.cflags;
    VariantRun run =
        compileAndRun(unit.source, "tune", flags, config.seed,
                      config.repeats, config.warmup);
    if (!run.ok) {
        cand.note = run.error;
        return;
    }
    if (run.checksum != oracle_checksum) {
        cand.note = concat("checksum mismatch: binary ",
                           checksumHex(run.checksum),
                           " vs interpreter oracle ",
                           checksumHex(oracle_checksum));
        return;
    }
    cand.runtime = run.runSeconds;
    cand.runtimeMin = run.runSecondsMin;
    cand.note = run.timingNote;
    cand.valid = true;
}

/** Mark the (runtime, registers) Pareto frontier among valid rows. */
void
markPareto(std::vector<TuneCandidate> &candidates)
{
    for (TuneCandidate &a : candidates) {
        if (!a.valid)
            continue;
        bool dominated = false;
        for (const TuneCandidate &b : candidates) {
            if (&a == &b || !b.valid)
                continue;
            bool no_worse = b.runtime <= a.runtime &&
                            b.registers <= a.registers;
            bool better = b.runtime < a.runtime ||
                          b.registers < a.registers;
            if (no_worse && better) {
                dominated = true;
                break;
            }
        }
        a.pareto = !dominated;
    }
}

NestTune
tuneNest(const Program &program, const LoopNest &nest,
         const MachineModel &machine, const TuneConfig &config)
{
    NestTune out;
    out.name = nest.name();
    Program solo = isolateNest(program, nest);

    // The model's own decision seeds the search.
    PipelineConfig base = config.pipeline;
    base.optimizer.forceUnroll.reset();
    PipelineResult model_run = optimizeProgram(solo, machine, base);
    if (model_run.outcomes.empty())
        return out;
    UnrollDecision decision = model_run.outcomes.front().decision;
    // The model run doubles as the "model" candidate's forced run when
    // its decision has the nest's depth (a committed unroll stage or a
    // strict-lint skip) and one piece. After a rolled-back unroll stage
    // the forced zero vector carries predicted numbers the empty
    // decision lacks; with several distributed pieces the forced run
    // unrolls each by the last piece's vector.
    bool reuse_model_run = decision.unroll.size() == nest.depth() &&
                           model_run.outcomes.front().pieces == 1;
    // Every forced candidate reads its cell from the analysis the model
    // run used instead of building its own.
    PipelineConfig forced = config.pipeline;
    forced.optimizer.analysis = model_run.outcomes.front().analysis;
    // A contained unroll-stage fault (e.g. coupled subscripts the
    // tables cannot rank) leaves the decision's vectors empty;
    // normalize to all-zero at nest depth so every IntVector
    // downstream (neighborhood sort, applied-vector dedup) compares
    // at one size.
    if (decision.unroll.size() != nest.depth())
        decision.unroll = IntVector(nest.depth());
    if (decision.safetyBounds.size() != nest.depth())
        decision.safetyBounds = IntVector(nest.depth());
    out.modelPick = decision.unroll;
    out.features = featuresOf(nest, machine, decision);

    // The interpreter oracle all wall-mode binaries must reproduce.
    std::uint64_t oracle_checksum = 0;
    if (config.measure == MeasureMode::Wall) {
        Interpreter interp(solo, {});
        interp.seedArrays(config.seed);
        interp.run();
        oracle_checksum = interpreterChecksum(interp, solo);
    }

    // Candidate order (deterministic): the model pick, the zero
    // baseline, then neighbors closest-first.
    struct Seed
    {
        IntVector u;
        const char *source;
    };
    std::vector<Seed> seeds;
    seeds.push_back({decision.unroll, "model"});
    if (!decision.unroll.isZero())
        seeds.push_back({IntVector(nest.depth()), "baseline"});
    for (IntVector &u :
         neighborhoodOf(decision, config.neighborhood))
        seeds.push_back({std::move(u), "neighbor"});
    out.enumerated = seeds.size();

    double start = monotonicSeconds();
    std::set<IntVector, IntVectorLexLess> applied_seen;
    for (const Seed &seed : seeds) {
        TuneCandidate cand;
        cand.unroll = seed.u;
        cand.source = seed.source;

        PipelineResult run;
        if (reuse_model_run) {
            run = std::move(model_run); // the "model" seed comes first
            reuse_model_run = false;
        } else {
            forced.optimizer.forceUnroll = seed.u;
            try {
                run = optimizeProgram(solo, machine, forced);
            } catch (const FatalError &err) {
                cand.note = err.what();
                out.candidates.push_back(std::move(cand));
                continue;
            }
        }
        if (run.outcomes.empty())
            continue;
        const UnrollDecision &d = run.outcomes.front().decision;
        // Projection/clamping can collapse distinct requests onto one
        // applied vector; measure each applied vector once. A
        // contained fault leaves d.unroll empty -- that run applied
        // nothing, so it dedups as the zero vector.
        IntVector applied = d.unroll.size() == nest.depth()
                                ? d.unroll
                                : IntVector(nest.depth());
        if (!applied_seen.insert(applied).second)
            continue;
        cand.unroll = applied;
        cand.predictedBalance = d.predictedBalance;
        cand.predictedScore =
            std::fabs(d.predictedBalance - machine.machineBalance());
        cand.registers = d.registers;

        if (config.pipeline.optimizer.limitRegisters &&
            !d.unroll.isZero() &&
            d.registers > machine.fpRegisters) {
            cand.note = concat("register pressure ", d.registers,
                               " exceeds the machine's ",
                               machine.fpRegisters);
            out.candidates.push_back(std::move(cand));
            continue;
        }

        bool always = cand.source != std::string("neighbor");
        if (config.measure == MeasureMode::Wall &&
            config.budgetMs > 0 && !always &&
            (monotonicSeconds() - start) * 1000.0 >=
                static_cast<double>(config.budgetMs)) {
            out.budgetExhausted = true;
            cand.note = "not measured: budget exhausted";
            out.candidates.push_back(std::move(cand));
            continue;
        }

        try {
            measureCandidate(cand, run.program, machine, config,
                             oracle_checksum);
        } catch (const FatalError &err) {
            cand.measured = true;
            cand.note = err.what();
        }
        if (cand.measured)
            ++out.measuredCount;
        out.candidates.push_back(std::move(cand));
    }

    // Verdicts: the measured best, the model-vs-measured ratio, and
    // whether the model pick survives within the noise margin.
    const TuneCandidate *pick = nullptr;
    const TuneCandidate *best = nullptr;
    for (const TuneCandidate &cand : out.candidates) {
        if (!cand.valid)
            continue;
        if (cand.source == "model")
            pick = &cand;
        if (!best || cand.runtime < best->runtime)
            best = &cand;
    }
    if (best) {
        out.measuredBest = best->unroll;
        out.bestRuntime = best->runtime;
    }
    if (pick) {
        out.modelPickRuntime = pick->runtime;
        if (best && best->runtime > 0)
            out.modelOverBest = pick->runtime / best->runtime;
        double margin = config.measure == MeasureMode::Model
                            ? 0.0
                            : config.noiseMargin;
        out.modelOptimal =
            best == nullptr ||
            best->runtime >= pick->runtime * (1.0 - margin);
        for (TuneCandidate &cand : out.candidates) {
            if (cand.valid && pick->runtime > 0)
                cand.vsModelPick = cand.runtime / pick->runtime;
        }
    } else {
        out.modelOptimal = false;
    }
    markPareto(out.candidates);
    return out;
}

void
vectorJson(JsonWriter &w, const IntVector &v)
{
    w.beginArray();
    for (std::int64_t x : v)
        w.value(x);
    w.endArray();
}

void
featuresJson(JsonWriter &w, const TuneFeatures &f)
{
    w.beginObject();
    w.field("depth", static_cast<std::uint64_t>(f.depth));
    w.field("body_flops", f.bodyFlops);
    w.field("accesses", static_cast<std::uint64_t>(f.accessCount));
    w.field("arrays", static_cast<std::uint64_t>(f.arrayCount));
    w.field("machine_balance", f.machineBalance);
    w.field("original_balance", f.originalBalance);
    w.field("pick_balance", f.pickBalance);
    w.field("pick_registers", f.pickRegisters);
    w.key("safety_bounds");
    vectorJson(w, f.safetyBounds);
    w.endObject();
}

void
nestTuneJson(JsonWriter &w, const NestTune &nest)
{
    w.beginObject();
    w.field("nest", nest.name);
    w.key("model_pick");
    vectorJson(w, nest.modelPick);
    w.key("measured_best");
    vectorJson(w, nest.measuredBest);
    w.field("model_pick_runtime", nest.modelPickRuntime);
    w.field("best_runtime", nest.bestRuntime);
    w.field("model_over_best", nest.modelOverBest);
    w.field("model_optimal", nest.modelOptimal);
    w.field("enumerated", static_cast<std::uint64_t>(nest.enumerated));
    w.field("measured",
            static_cast<std::uint64_t>(nest.measuredCount));
    w.field("budget_exhausted", nest.budgetExhausted);
    w.key("candidates");
    w.beginArray();
    for (const TuneCandidate &cand : nest.candidates) {
        w.beginObject();
        w.key("unroll");
        vectorJson(w, cand.unroll);
        w.field("source", cand.source);
        w.field("predicted_balance", cand.predictedBalance);
        w.field("predicted_score", cand.predictedScore);
        w.field("registers", cand.registers);
        w.field("measured", cand.measured);
        w.field("valid", cand.valid);
        w.field("runtime", cand.runtime);
        w.field("runtime_min", cand.runtimeMin);
        w.field("vs_model_pick", cand.vsModelPick);
        w.field("pareto", cand.pareto);
        if (!cand.note.empty())
            w.field("note", cand.note);
        w.endObject();
    }
    w.endArray();
    w.key("pareto");
    w.beginArray();
    for (const TuneCandidate &cand : nest.candidates) {
        if (!cand.pareto)
            continue;
        w.beginObject();
        w.key("unroll");
        vectorJson(w, cand.unroll);
        w.field("runtime", cand.runtime);
        w.field("registers", cand.registers);
        w.endObject();
    }
    w.endArray();
    w.key("features");
    featuresJson(w, nest.features);
    w.endObject();
}

} // namespace

const char *
measureModeName(MeasureMode mode)
{
    return mode == MeasureMode::Wall ? "wall" : "model";
}

TuneResult
tuneProgram(const Program &program, const MachineModel &machine,
            const TuneConfig &config)
{
    TuneResult result;
    result.machineName = machine.name;
    result.mode = config.measure;
    if (config.measure == MeasureMode::Wall) {
        if (hostCCompiler().empty()) {
            result.skipped = true;
            result.skipReason =
                "no host C compiler found (set UJAM_CC or put "
                "cc/gcc/clang on PATH); use measure=model for a "
                "compiler-free run";
            return result;
        }
        result.compiler = hostCompilerVersion();
    }
    for (const LoopNest &nest : program.nests())
        result.nests.push_back(
            tuneNest(program, nest, machine, config));
    return result;
}

std::string
tuneResultJson(const TuneResult &result, const TuneConfig &config)
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", "ujam-tune-v1");
    w.field("machine", result.machineName);
    w.field("mode", measureModeName(result.mode));
    if (!result.compiler.empty())
        w.field("compiler", result.compiler);
    w.field("budget_ms", config.budgetMs);
    w.field("neighborhood", config.neighborhood);
    w.field("repeats", config.repeats);
    w.field("warmup", config.warmup);
    w.field("seed", static_cast<std::uint64_t>(config.seed));
    w.field("noise_margin", config.noiseMargin);
    w.field("skipped", result.skipped);
    if (result.skipped)
        w.field("skip_reason", result.skipReason);
    w.key("nests");
    w.beginArray();
    for (const NestTune &nest : result.nests)
        nestTuneJson(w, nest);
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
tuneFeatureRowJson(const std::string &programName,
                   const TuneResult &result, const NestTune &nest)
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", "ujam-tune-features-v1");
    w.field("program", programName);
    w.field("machine", result.machineName);
    w.field("mode", measureModeName(result.mode));
    if (!result.compiler.empty())
        w.field("compiler", result.compiler);
    w.field("nest", nest.name);
    w.key("features");
    featuresJson(w, nest.features);
    w.key("model_pick");
    vectorJson(w, nest.modelPick);
    w.key("best_unroll");
    vectorJson(w, nest.measuredBest);
    w.field("model_over_best", nest.modelOverBest);
    w.endObject();
    return w.str();
}

} // namespace ujam
