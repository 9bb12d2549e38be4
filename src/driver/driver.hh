/**
 * @file
 * The whole-program optimization pipeline in one call.
 *
 * Stages, in order:
 *   0. loop fusion        (program level, optional: merge adjacent
 *                          producer-consumer nests)
 * then per nest:
 *   1. normalization      (step-1 loops; always safe, optional)
 *   2. distribution       (optional: split independent statement
 *                          groups so each gets its own decision)
 *   3. loop interchange   (Eq. 1 memory order; off by default -- the
 *                          paper studies unroll-and-jam in isolation)
 *   4. unroll-and-jam     (the paper: table-driven amount selection)
 *   5. scalar replacement (register reuse for the unrolled body)
 *   6. prefetch insertion (optional; section 3.2's model realized)
 *
 * Fringe nests created by step 4 get steps 5-6 as well.
 *
 * Every stage runs inside a safety net (SafetyConfig): its output is
 * structurally validated (ir/validate.hh), optionally differentially
 * verified against its input (driver/oracle.hh), and any
 * FatalError/PanicError or rejection is *contained* -- the nest rolls
 * back to its exact pre-stage IR, a StageDiagnostic is recorded, and
 * the pipeline continues with the remaining stages and nests. A bad
 * nest degrades to "left unoptimized at that stage"; it never takes
 * the run down with it.
 */

#ifndef UJAM_DRIVER_DRIVER_HH
#define UJAM_DRIVER_DRIVER_HH

#include "analysis/linter.hh"
#include "core/optimizer.hh"
#include "support/fault_injection.hh"
#include "transform/prefetch_insertion.hh"

namespace ujam
{

/**
 * How the static analyzer participates in the pipeline.
 *
 * Warn runs the analyzer and reports its findings alongside the
 * result. Strict additionally refuses to transform any nest with an
 * error finding: the nest is passed through untouched (and marked
 * lintSkipped), so no stage -- and no safety-net rollback -- ever
 * runs on a nest the analyzer can prove troublesome.
 */
enum class LintMode
{
    Off,
    Warn,
    Strict
};

/** @return "off", "warn" or "strict". */
const char *lintModeName(LintMode mode);

/** The pipeline stages, in execution order. */
enum class Stage
{
    Fuse,
    Normalize,
    Distribute,
    Interchange,
    Unroll,
    ScalarReplace,
    Prefetch
};

/** @return The stage's name as used in fault specs and reports. */
const char *stageName(Stage stage);

/** One contained failure: where, what class, and the message. */
struct StageDiagnostic
{
    /** What the guard caught. */
    enum class Kind
    {
        Fatal,     //!< a FatalError escaped the stage
        Panic,     //!< a PanicError escaped the stage (a ujam bug)
        Validator, //!< the stage output failed structural validation
        Oracle     //!< the stage output failed differential execution
    };

    Stage stage = Stage::Normalize;
    Kind kind = Kind::Fatal;
    std::string message;

    /** @return e.g. "unroll:validator: <message>". */
    std::string toString() const;
};

/** @return The diagnostic kind's report spelling. */
const char *stageDiagnosticKindName(StageDiagnostic::Kind kind);

/** Safety-net switches; see the file comment. */
struct SafetyConfig
{
    /** Structurally validate every stage's output (cheap; default on). */
    bool validate = true;
    /**
     * Differentially execute every stage's output against its input
     * (interpreter runs per stage; meant for tests and fuzzing).
     */
    bool oracle = false;
    std::size_t oracleTrials = 1; //!< independently seeded inputs
    /**
     * Relative tolerance for stages that reorder floating-point
     * arithmetic (interchange, unroll-and-jam, scalar replacement).
     * Order-preserving stages are always compared bit-exactly.
     */
    double tolerance = 1e-9;
    std::uint64_t oracleSeed = 9717; //!< master seed for oracle inputs
    /** Parameter overrides for oracle runs (shrink big extents). */
    ParamBindings oracleParams;
    /**
     * Fault-injection points (see support/fault_injection.hh); specs
     * from the UJAM_FAULT environment variable are appended at run
     * time.
     */
    std::vector<FaultSpec> faults;
};

/** Pipeline configuration. */
struct PipelineConfig
{
    OptimizerConfig optimizer;   //!< unroll-amount selection
    bool fuse = false;           //!< merge adjacent conformable nests
    bool normalize = true;       //!< rewrite stepped loops first
    bool distribute = false;     //!< split independent statement groups
    bool interchange = false;    //!< Eq. 1 loop-order selection
    bool scalarReplace = true;   //!< register reuse after unrolling
    bool prefetch = false;       //!< insert prefetch statements
    PrefetchConfig prefetchConfig; //!< distance etc.
    SafetyConfig safety;         //!< validator/oracle/containment knobs
    LintMode lint = LintMode::Off; //!< static analysis before stages
    LintOptions lintOptions;     //!< analyzer knobs when lint != Off
    /**
     * Worker threads for the per-nest fan-out: 0 = defaultThreads()
     * (one per core), 1 = serial. Nests are optimized into
     * index-addressed slots and merged in input order, so the result
     * is bit-identical for every thread count.
     */
    std::size_t threads = 0;
};

/** Per-nest record of what the pipeline did. */
struct NestOutcome
{
    std::string name;            //!< nest name (may be empty)
    bool normalized = false;     //!< any loop rewritten to step 1
    std::size_t pieces = 1;      //!< nests after distribution
    bool interchanged = false;   //!< loop order changed
    std::vector<std::size_t> permutation; //!< applied loop order
    UnrollDecision decision;     //!< the unroll choice
    /**
     * The analysis the unroll choice was read from: the one passed in
     * OptimizerConfig::analysis when it answered this nest, else the
     * one built for it (the last piece's, like the decision). Null
     * when the nest is shallower than 2, strict lint skipped it or
     * its unroll stage rolled back.
     */
    std::shared_ptr<const UnrollAnalysis> analysis;
    std::size_t loadsRemoved = 0;   //!< by scalar replacement
    std::size_t prefetches = 0;     //!< inserted per body
    /** Faults contained while optimizing this nest, in stage order. */
    std::vector<StageDiagnostic> contained;
    /** True when strict lint refused to transform this nest. */
    bool lintSkipped = false;
};

/** The optimized program plus the per-nest log. */
struct PipelineResult
{
    Program program;
    std::vector<NestOutcome> outcomes; //!< one per (post-fusion) nest
    std::size_t fusions = 0;           //!< adjacent nests merged
    /** Faults contained in program-level stages (fusion). */
    std::vector<StageDiagnostic> programDiagnostics;
    /** Analyzer findings (empty sourceName when lint was Off). */
    LintResult lint;

    /** @return Total contained faults, program- and nest-level. */
    std::size_t containedFaults() const;

    /** @return A short human-readable summary of all outcomes. */
    std::string summary() const;
};

/**
 * Optimize every nest of a program for a machine.
 *
 * Never throws for a defect in a particular nest: stage failures are
 * contained per nest (see SafetyConfig) and reported in the result.
 *
 * @param program The input program (left untouched).
 * @param machine The optimization target.
 * @param config  Stage switches and optimizer knobs.
 * @return The transformed program and what happened per nest.
 */
PipelineResult optimizeProgram(const Program &program,
                               const MachineModel &machine,
                               const PipelineConfig &config = {});

} // namespace ujam

#endif // UJAM_DRIVER_DRIVER_HH
