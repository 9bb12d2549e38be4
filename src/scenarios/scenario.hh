/**
 * @file
 * Synthetic scenario generators: parameterized loop-nest families.
 *
 * Every subsystem so far was evaluated on the same nineteen Table-2
 * loops, i.e. on the corpus the model was calibrated on. Scenario
 * generators open new workloads: each family (stencils of one to
 * three dimensions, dense linear algebra, banded recurrences, strided
 * and skewed access, regular-pattern-in-irregular nests) turns a
 * fully resolved parameter binding plus a seed into a valid ujam DSL
 * program, deterministically -- generation draws every free choice
 * from an Rng stream derived from (seed) alone, so a scenario name is
 * a stable, shareable identity:
 *
 *     family:key=value,...:seed        e.g.  stencil2d:n=64,radius=2:7
 *
 * Besides the program text, a generator declares *ground truth*: the
 * dependence shape, per-loop unroll legality and per-array self-reuse
 * class its construction guarantees. Conformance tests assert the
 * real analyses (deps/analyzer, reuse/locality) against these
 * declarations over sampled parameter grids, so the generators double
 * as an oracle for the analysis stack on inputs it was never
 * calibrated on.
 */

#ifndef UJAM_SCENARIOS_SCENARIO_HH
#define UJAM_SCENARIOS_SCENARIO_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ir/loop_nest.hh"
#include "reuse/locality.hh"

namespace ujam
{

/** One generator parameter: name, default and legal range. */
struct ScenarioParam
{
    std::string name;
    std::int64_t def = 0;
    std::int64_t min = 0;
    std::int64_t max = 0;
    std::string doc; //!< one-line description for --list
};

/**
 * A fully resolved scenario identity: family, every parameter bound
 * (defaults filled in), and the generation seed.
 */
struct ScenarioSpec
{
    std::string family;
    std::map<std::string, std::int64_t> params; //!< complete after parse
    std::uint64_t seed = 0;

    /** @return The parameter's value; fatal if absent. */
    std::int64_t at(const std::string &name) const;

    /**
     * @return The canonical name "family:k=v,...:seed" with the
     * parameters in the family's schema order. Parsing the canonical
     * name reproduces this spec exactly.
     */
    std::string toString() const;
};

/**
 * What the generator guarantees about the emitted program, by
 * construction. Conformance tests check each field against the real
 * analyses.
 */
struct ScenarioGroundTruth
{
    std::size_t depth = 0; //!< nest depth of the single emitted nest

    /**
     * True iff the body carries at least one non-input dependence
     * (flow/anti/output with a non-'=' direction component).
     */
    bool carriedNonInput = false;

    /**
     * Per loop, outermost first: whether unroll-and-jam of that loop
     * is legal at some positive amount (safeUnrollBounds > 0). The
     * innermost entry is always false (the innermost loop is never
     * unroll-and-jammed).
     */
    std::vector<bool> legalUnroll;

    /**
     * Expected self-reuse class per array under the innermost-only
     * localized space, for arrays whose accesses form a single
     * uniformly generated set. Arrays not listed are unchecked.
     */
    std::vector<std::pair<std::string, SelfReuse>> selfReuse;
};

/** One generated scenario: identity, program text, declared truth. */
struct GeneratedScenario
{
    std::string name;   //!< canonical "family:k=v,...:seed"
    std::string source; //!< valid ujam DSL (one nest)
    ScenarioGroundTruth truth;
};

/**
 * A scenario family. Implementations are stateless and registered
 * once in scenarioRegistry(); generate() must be a pure function of
 * the (complete) spec.
 */
class IScenarioGenerator
{
  public:
    virtual ~IScenarioGenerator() = default;

    /** @return The family name used in scenario specs. */
    virtual const char *family() const = 0;

    /** @return A one-line description for --list output. */
    virtual const char *summary() const = 0;

    /** @return The parameter schema, in canonical-name order. */
    virtual const std::vector<ScenarioParam> &params() const = 0;

    /**
     * Emit the scenario for a complete spec.
     *
     * @pre spec.family == family() and every schema parameter is
     *      bound to an in-range value (parseScenarioSpec guarantees
     *      this).
     */
    virtual GeneratedScenario generate(const ScenarioSpec &spec) const = 0;
};

/** @return All registered families, in stable registration order. */
const std::vector<const IScenarioGenerator *> &scenarioRegistry();

/** @return The family by name, or nullptr when unknown. */
const IScenarioGenerator *findScenarioFamily(const std::string &name);

/**
 * Parse "family[:k=v,...][:seed]" into a complete spec.
 *
 * Parameters may appear in any order and any subset; missing ones
 * take their schema defaults, unknown names and out-of-range values
 * are errors. A missing seed segment means seed 0.
 *
 * @param name  The scenario name.
 * @param error Receives a one-line message on failure.
 * @return The complete spec, or std::nullopt.
 */
std::optional<ScenarioSpec> parseScenarioSpec(const std::string &name,
                                              std::string *error);

/**
 * @return True when the name is syntactically a scenario name rather
 * than a Table-2 suite-loop name (it contains a ':').
 */
bool looksLikeScenarioName(const std::string &name);

/** Generate from a complete spec (pure; fatal on unknown family). */
GeneratedScenario generateScenario(const ScenarioSpec &spec);

/**
 * @return A human-readable catalog of every registered family --
 * name, summary and parameter schema -- for the CLIs' --list output.
 */
std::string renderScenarioCatalog();

/**
 * Check a parsed scenario program against its declared ground truth
 * with the real analyses: dependence shape and per-loop unroll
 * legality against deps/analyzer, self-reuse classes against the UGS
 * partition under the innermost-only localized space.
 *
 * @param program The parsed scenario (one nest).
 * @param truth   The generator's declaration.
 * @param why     Receives a one-line mismatch explanation.
 * @return True when every declared fact matches the analyses.
 */
bool verifyScenarioTruth(const Program &program,
                         const ScenarioGroundTruth &truth,
                         std::string *why);

} // namespace ujam

#endif // UJAM_SCENARIOS_SCENARIO_HH
