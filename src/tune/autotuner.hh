/**
 * @file
 * Measured autotuning: close the loop between the paper's balance
 * model (Eq. 1, section 4.5) and reality.
 *
 * The model picks one unroll vector per nest analytically. The
 * autotuner treats that pick as a *seed*: it enumerates a
 * neighborhood of adjacent unroll vectors (a Chebyshev ball of
 * configurable radius over the nest's unrollable loops, clamped to
 * the dependence safety bounds), pushes each candidate through the
 * full optimization pipeline via OptimizerConfig::forceUnroll -- so
 * every candidate gets normalization, scalar replacement, fringe
 * loops and the safety net exactly as a model-chosen vector would --
 * and ranks candidates by *measured* runtime. The model run analyzes
 * the nest once (or takes the caller's OptimizerConfig::analysis);
 * every forced candidate reads its cell from that analysis.
 *
 * Two measurement backends share one code path:
 *
 *  - MeasureMode::Wall compiles each candidate's generated C with the
 *    host compiler (kMeasureCFlags: optimized, FP contraction off)
 *    and times the binary warmup+median-of-K through the same
 *    compileAndRun() harness ujam-codegen --run uses. Checksums are
 *    verified against the interpreter oracle, so a miscompiled or
 *    illegally transformed candidate is marked invalid rather than
 *    ranked. Requires a host C compiler; the whole run self-skips
 *    (TuneResult::skipped) without one.
 *
 *  - MeasureMode::Model charges each candidate the cycle estimate of
 *    the execution-time simulator (sim/simulator.hh). Fully
 *    deterministic -- identical inputs give bit-identical results --
 *    and compiler-free, so tests and the caching service can rely on
 *    reproducible bytes.
 *
 * Per nest the tuner reports every candidate with its model-predicted
 * numbers next to its measured runtime (the model-vs-measured deltas
 * the ROADMAP asks for), the measured-best vector, whether the model
 * pick was optimal within a noise margin, and the Pareto frontier
 * over (measured runtime, register pressure) -- the two axes a user
 * trades when the register file is tight.
 *
 * The wall-clock budget (TuneConfig::budgetMs) bounds measurement per
 * nest: the model pick and the untransformed baseline are always
 * measured; neighborhood candidates are measured closest-first until
 * the budget runs out. In Model mode the budget is ignored --
 * simulation is cheap and wall-clock cutoffs would break determinism.
 */

#ifndef UJAM_TUNE_AUTOTUNER_HH
#define UJAM_TUNE_AUTOTUNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "driver/driver.hh"

namespace ujam
{

/** How candidate runtimes are obtained. */
enum class MeasureMode
{
    Wall, //!< compile + run on the host (median of K repeats)
    Model //!< deterministic simulator cycle estimate
};

/** @return "wall" or "model". */
const char *measureModeName(MeasureMode mode);

/** Autotuner knobs. */
struct TuneConfig
{
    /** Pipeline the candidates run through (optimizer.forceUnroll is
     * overwritten per candidate, and optimizer.analysis by the one the
     * model run used; everything else is honored). */
    PipelineConfig pipeline;
    MeasureMode measure = MeasureMode::Wall;
    /**
     * Per-nest wall-clock measurement budget in milliseconds; <= 0
     * means unlimited. The model pick and the zero baseline are
     * always measured even when the budget is already spent. Ignored
     * in Model mode (see the file comment).
     */
    std::int64_t budgetMs = 10000;
    /** Chebyshev radius of the neighborhood around the model pick. */
    std::int64_t neighborhood = 1;
    int repeats = 3;             //!< timed binary runs per candidate
    int warmup = 1;              //!< discarded runs before the timed ones
    std::uint64_t seed = 9717;   //!< array-seeding / run seed
    /** Wall-mode compiler flags; kMeasureCFlags when empty. */
    std::string cflags;
    /**
     * Relative noise margin for the model-optimal verdict in Wall
     * mode: the model pick counts as optimal when the measured best
     * is less than this fraction faster. Model mode compares exactly.
     */
    double noiseMargin = 0.03;
};

/** One candidate unroll vector: model numbers next to measurement. */
struct TuneCandidate
{
    IntVector unroll;            //!< applied vector (post projection)
    /** "model" (the Eq.-1 pick), "baseline" (all-zero), "neighbor". */
    std::string source;
    double predictedBalance = 0; //!< bL at this vector
    /** The model's objective |bL - bM| (smaller = model likes it). */
    double predictedScore = 0;
    std::int64_t registers = 0;  //!< RL at this vector
    bool measured = false;       //!< false: budget ran out / rejected
    bool valid = false;          //!< measured and checksum-verified
    /** Median measured runtime: seconds (Wall) or cycles (Model). */
    double runtime = 0;
    double runtimeMin = 0;       //!< fastest repeat (Wall mode)
    /** runtime / the model pick's runtime; 1.0 for the pick itself,
     * < 1.0 beats the model. Only meaningful when valid. */
    double vsModelPick = 0;
    bool pareto = false;         //!< on the (runtime, registers) frontier
    std::string note;            //!< skip/invalid/outlier diagnostic
};

/** The per-nest feature row --log-features emits for model training. */
struct TuneFeatures
{
    std::size_t depth = 0;         //!< nest depth
    double bodyFlops = 0;          //!< FP ops per body execution
    std::size_t accessCount = 0;   //!< array references in the body
    std::size_t arrayCount = 0;    //!< distinct arrays referenced
    double machineBalance = 0;     //!< bM
    double originalBalance = 0;    //!< bL at the zero vector
    double pickBalance = 0;        //!< bL at the model pick
    std::int64_t pickRegisters = 0; //!< RL at the model pick
    IntVector safetyBounds;        //!< per-loop legal maximum
};

/** Everything the tuner learned about one nest. */
struct NestTune
{
    std::string name;            //!< nest name (may be empty)
    IntVector modelPick;         //!< the Eq.-1 decision's vector
    IntVector measuredBest;      //!< fastest valid candidate's vector
    double modelPickRuntime = 0; //!< measured runtime of the pick
    double bestRuntime = 0;      //!< measured runtime of the best
    /** modelPickRuntime / bestRuntime; > 1 means measurement found a
     * faster vector than the model chose. */
    double modelOverBest = 1.0;
    bool modelOptimal = true;    //!< pick within noiseMargin of best
    std::size_t enumerated = 0;  //!< candidate vectors generated
    std::size_t measuredCount = 0; //!< candidates actually measured
    bool budgetExhausted = false;  //!< neighborhood truncated by budget
    std::vector<TuneCandidate> candidates; //!< deterministic order
    TuneFeatures features;       //!< the training row for this nest
};

/** One autotuning run over a whole program. */
struct TuneResult
{
    std::string machineName;     //!< the target machine
    MeasureMode mode = MeasureMode::Wall;
    std::string compiler;        //!< host identity (Wall mode)
    bool skipped = false;        //!< true: nothing was measured
    std::string skipReason;      //!< why (e.g. no host compiler)
    std::vector<NestTune> nests; //!< one per program nest
};

/**
 * Autotune every nest of a program.
 *
 * Each nest is measured in isolation: the tuner builds a single-nest
 * program (all array declarations and parameter defaults, that nest
 * alone) so one nest's runtime never pollutes another's ranking.
 *
 * @param program The program to tune (left untouched).
 * @param machine The optimization target (model pick, register cap,
 *                and the simulator's machine in Model mode).
 * @param config  Tuner knobs.
 * @return Per-nest candidates, Pareto sets and verdicts; skipped is
 *         true (with nests empty) when Wall mode finds no compiler.
 */
TuneResult tuneProgram(const Program &program,
                       const MachineModel &machine,
                       const TuneConfig &config = {});

/**
 * Render a tune run as one compact JSON object ("ujam-tune-v1").
 * Deterministic for a given result; in Model mode the result itself
 * is deterministic, so the service can cache the document
 * content-addressed.
 *
 * @param result A finished tune run.
 * @param config The configuration it ran under (echoed for
 *               provenance: budget, neighborhood, repeats, seed).
 * @return One-line JSON object text.
 */
std::string tuneResultJson(const TuneResult &result,
                           const TuneConfig &config);

/**
 * Render one nest's training row as a one-line JSON object
 * ("ujam-tune-features-v1"): the nest features plus the measured-best
 * unroll vector as the label. --log-features appends one such line
 * per tuned nest (NDJSON).
 */
std::string tuneFeatureRowJson(const std::string &programName,
                               const TuneResult &result,
                               const NestTune &nest);

} // namespace ujam

#endif // UJAM_TUNE_AUTOTUNER_HH
