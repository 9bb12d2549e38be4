/**
 * @file
 * Differential semantic oracle for pipeline stages.
 *
 * A transformation is only trustworthy if the transformed code
 * computes what the original computed. This oracle makes that check
 * executable: it runs the reference Interpreter over the pre- and
 * post-stage versions of a nest (or group of nests) on deterministic,
 * Rng::deriveStream-seeded array contents and compares every array
 * element-wise.
 *
 * Tolerance policy: stages that keep the order of floating-point
 * operations (normalization, distribution, fusion, prefetch
 * insertion) must match bit-exactly; stages that reassociate or
 * reorder arithmetic (interchange, unroll-and-jam, scalar
 * replacement) are allowed a small relative tolerance, since IEEE
 * addition is not associative and reduction reorderings legitimately
 * perturb low-order bits.
 */

#ifndef UJAM_DRIVER_ORACLE_HH
#define UJAM_DRIVER_ORACLE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ir/interp.hh"
#include "ir/loop_nest.hh"

namespace ujam
{

/** Oracle knobs. */
struct OracleConfig
{
    std::uint64_t seed = 9717;  //!< master seed for input derivation
    std::size_t trials = 1;     //!< independent seedings compared
    double tolerance = 1e-9;    //!< rel tolerance for reordering stages
    /**
     * Parameter overrides applied to both interpretations; lets the
     * caller shrink symbolic extents so a verification run stays
     * cheap. Empty = the program's defaults.
     */
    ParamBindings params;
};

/** The outcome of one differential check. */
struct OracleVerdict
{
    bool ok = true;
    std::string mismatch; //!< first difference found, empty when ok

    explicit operator bool() const { return ok; }
};

/**
 * One oracle trial of one nest list: the nests interpreted on that
 * trial's seeded inputs, or the message of the failure that stopped
 * them. Trial t of point `stream` seeds its inputs with
 * Rng::deriveStream(config.seed, stream * trials + t), so a run
 * depends only on (nests, seed, stream, t) -- never on which thread
 * or which stage interprets it. That is what lets the pipeline keep a
 * committed stage's runs as the next stage's reference.
 */
class OracleRun
{
  public:
    /**
     * Interpret nests against context's declarations and parameter
     * defaults (context's own nests are ignored).
     */
    OracleRun(const Program &context, const std::vector<LoopNest> &nests,
              const OracleConfig &config, std::uint64_t stream,
              std::size_t trial);

    /**
     * The trial of reference, interpreting nests on a copy of the
     * inputs reference was seeded with rather than hashing them again
     * (context must declare the same arrays, config bind the same
     * parameters). The copy shares reference's kept inputs, so a run
     * made this way serves as the next reference in turn.
     */
    OracleRun(const Program &context, const std::vector<LoopNest> &nests,
              const OracleConfig &config, const OracleRun &reference);

    OracleRun(const OracleRun &) = delete;
    OracleRun &operator=(const OracleRun &) = delete;

    /** @return "trial t: execution failed: ...", or empty if it ran. */
    const std::string &failure() const { return failure_; }

  private:
    friend std::string compareOracleRuns(const OracleRun &, const OracleRun &,
                                         bool, const OracleConfig &);

    /** Interpret program_ on inputs_, seeding and keeping them first
     * when this run has none. */
    void interpret(const OracleConfig &config);

    Program program_; //!< the interpreter refers to it
    std::optional<Interpreter> interpreter_;
    std::size_t trial_;
    std::uint64_t seed_;
    /** The trial's seeded inputs, shared by the runs copied from it. */
    std::shared_ptr<const Interpreter::ArrayImage> inputs_;
    std::string failure_;
};

/**
 * Compare a candidate run with the reference run of the same trial.
 *
 * @param bitExact True: compare exactly; false: config.tolerance.
 * @return Empty when they agree; else the reference's failure, the
 *         candidate's failure, or the first difference.
 */
std::string compareOracleRuns(const OracleRun &reference,
                              const OracleRun &candidate, bool bitExact,
                              const OracleConfig &config);

/**
 * Differentially verify that two nest lists compute the same arrays.
 *
 * Both lists are executed against the declarations and parameter
 * defaults of context (whose own nests are ignored): for each of
 * config.trials trials, an OracleRun of before, then (if it ran) one
 * of after on a copy of its inputs, then compareOracleRuns, stopping
 * at the first difference.
 *
 * @param context  Supplies array declarations and parameter defaults.
 * @param before   The pre-stage nests.
 * @param after    The post-stage nests.
 * @param bitExact True: compare exactly; false: config.tolerance.
 * @param config   Seeds, trials, tolerance.
 * @param stream   Caller-chosen stream index (e.g. the nest index).
 * @return ok, or the first mismatch description.
 */
OracleVerdict verifyEquivalence(const Program &context,
                                const std::vector<LoopNest> &before,
                                const std::vector<LoopNest> &after,
                                bool bitExact,
                                const OracleConfig &config = {},
                                std::uint64_t stream = 0);

/**
 * Convenience wrapper: verify two whole programs (their nest lists)
 * against the first program's declarations.
 */
OracleVerdict verifyPrograms(const Program &before, const Program &after,
                             bool bitExact,
                             const OracleConfig &config = {},
                             std::uint64_t stream = 0);

} // namespace ujam

#endif // UJAM_DRIVER_ORACLE_HH
