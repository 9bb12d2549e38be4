/**
 * @file
 * The analyzer's rule interface.
 *
 * Each rule inspects one nest through a shared RuleContext and emits
 * findings. The context builds its expensive artifacts (dependence
 * graph, UGS partition, safe unroll bounds) lazily and caches them,
 * so a nest pays for an analysis only when some rule asks for it.
 */

#ifndef UJAM_ANALYSIS_RULE_HH
#define UJAM_ANALYSIS_RULE_HH

#include <memory>
#include <optional>
#include <vector>

#include "analysis/dataflow.hh"
#include "analysis/diagnostic.hh"
#include "deps/analyzer.hh"
#include "ir/validate.hh"
#include "model/machine.hh"
#include "reuse/ugs.hh"

namespace ujam
{

/**
 * Everything a rule may inspect about the nest under analysis.
 */
class RuleContext
{
  public:
    RuleContext(const Program &program, const LoopNest &nest,
                std::size_t nest_index, const MachineModel &machine,
                const LintOptions &options)
        : program_(program), nest_(nest), nestIndex_(nest_index),
          machine_(machine), options_(options)
    {}

    const Program &program() const { return program_; }
    const LoopNest &nest() const { return nest_; }
    std::size_t nestIndex() const { return nestIndex_; }
    const MachineModel &machine() const { return machine_; }
    const LintOptions &options() const { return options_; }

    /** @return The nest's accesses (cached). */
    const std::vector<Access> &accesses();

    /**
     * @return The dependence graph without input edges (the
     * optimizer's view; cached). @throws FatalError when the
     * subscript tests overflow -- the linter contains it.
     */
    const DependenceGraph &deps();

    /** @return The UGS partition of the accesses (cached). */
    const std::vector<UniformlyGeneratedSet> &ugs();

    /** @return Per-loop safe unroll bounds at options().maxUnroll. */
    const IntVector &safeBounds();

    /** @return Evidence trail recorded while computing safeBounds(). */
    const std::vector<UnrollConstraint> &constraints();

    /**
     * @return [lo, hi] per loop under the program's parameter
     * defaults, or nothing when some bound does not evaluate
     * (loopRanges; cached).
     */
    const std::optional<LoopRanges> &ranges();

    /**
     * @return The symbolic dataflow facts for the nest under the
     * program's parameter defaults (cached).
     * Unlike ranges(), individual facts degrade to top instead of the
     * whole result vanishing when one bound is symbolic.
     */
    const NestDataflow &dataflow();

    /** What the dependence range pre-filter would delete. */
    struct PruneStats
    {
        std::vector<PrunedEdge> pruned; //!< deleted edges with proofs
        std::size_t kept = 0;           //!< edges surviving the filter
    };

    /**
     * @return The range pre-filter's effect on this nest's graph
     * (the optimizer's no-input view, under the parameter defaults;
     * cached). deps() itself stays unpruned so reach/constraint rules
     * keep their full evidence base.
     */
    const PruneStats &pruneStats();

    /** Shorthand for building a finding against this nest. */
    LintDiagnostic
    finding(const char *rule_id, LintSeverity severity, SourceLoc loc,
            std::string message) const;

  private:
    const Program &program_;
    const LoopNest &nest_;
    std::size_t nestIndex_;
    const MachineModel &machine_;
    const LintOptions &options_;

    std::optional<std::vector<Access>> accesses_;
    std::optional<DependenceGraph> deps_;
    std::optional<std::vector<UniformlyGeneratedSet>> ugs_;
    std::optional<IntVector> safeBounds_;
    std::vector<UnrollConstraint> constraints_;
    std::optional<std::optional<LoopRanges>> ranges_;
    std::optional<NestDataflow> dataflow_;
    std::optional<PruneStats> pruneStats_;
};

/**
 * One analyzer rule. Implementations live in rules.cc and register
 * through lintRules().
 */
class Rule
{
  public:
    virtual ~Rule() = default;

    /** @return The stable id, e.g. "UJ001". */
    virtual const char *id() const = 0;

    /** @return A one-line description for the SARIF rule catalog. */
    virtual const char *summary() const = 0;

    /**
     * @return A longer explanation for `ujam-lint --explain`: what
     * the rule proves, which analysis powers it, and what to do about
     * a finding. Defaults to the summary.
     */
    virtual const char *details() const { return summary(); }

    /** @return The severity this rule's findings default to. */
    virtual LintSeverity defaultSeverity() const = 0;

    /** Inspect one nest; append findings to out. */
    virtual void check(RuleContext &ctx,
                       std::vector<LintDiagnostic> &out) const = 0;
};

/** @return The full rule catalog, in id order. */
const std::vector<std::unique_ptr<Rule>> &lintRules();

} // namespace ujam

#endif // UJAM_ANALYSIS_RULE_HH
