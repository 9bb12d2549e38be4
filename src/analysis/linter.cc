#include "analysis/linter.hh"

#include <algorithm>
#include <tuple>

#include "support/diagnostics.hh"

namespace ujam
{

// --- RuleContext lazy artifacts -------------------------------------

const std::vector<Access> &
RuleContext::accesses()
{
    if (!accesses_)
        accesses_ = nest_.accesses();
    return *accesses_;
}

const DependenceGraph &
RuleContext::deps()
{
    if (!deps_) {
        DepOptions options;
        options.includeInput = false; // the optimizer's view
        deps_ = analyzeDependences(nest_, options);
    }
    return *deps_;
}

const std::vector<UniformlyGeneratedSet> &
RuleContext::ugs()
{
    if (!ugs_)
        ugs_ = partitionUGS(accesses());
    return *ugs_;
}

const IntVector &
RuleContext::safeBounds()
{
    if (!safeBounds_) {
        safeBounds_ = safeUnrollBounds(nest_, deps(), options_.maxUnroll,
                                       &constraints_);
    }
    return *safeBounds_;
}

const std::vector<UnrollConstraint> &
RuleContext::constraints()
{
    safeBounds();
    return constraints_;
}

const std::optional<LoopRanges> &
RuleContext::ranges()
{
    if (!ranges_)
        ranges_ = loopRanges(program_, nest_);
    return *ranges_;
}

const NestDataflow &
RuleContext::dataflow()
{
    if (!dataflow_)
        dataflow_.emplace(program_, nest_, program_.paramDefaults());
    return *dataflow_;
}

const RuleContext::PruneStats &
RuleContext::pruneStats()
{
    if (!pruneStats_) {
        PruneStats stats;
        DepOptions options;
        options.includeInput = false; // the optimizer's view
        options.rangePrune = true;
        options.params = program_.paramDefaults();
        options.pruned = &stats.pruned;
        stats.kept = analyzeDependences(nest_, options).edges().size();
        pruneStats_ = std::move(stats);
    }
    return *pruneStats_;
}

LintDiagnostic
RuleContext::finding(const char *rule_id, LintSeverity severity,
                     SourceLoc loc, std::string message) const
{
    LintDiagnostic diag;
    diag.ruleId = rule_id;
    diag.severity = severity;
    diag.loc = loc;
    diag.nestIndex = nestIndex_;
    diag.nestName = nest_.name();
    diag.message = std::move(message);
    return diag;
}

// --- the linter -----------------------------------------------------

LintResult
lintProgram(const Program &program, const MachineModel &machine,
            const LintOptions &options)
{
    LintResult result;
    result.sourceName = program.sourceName();

    for (std::size_t n = 0; n < program.nests().size(); ++n) {
        const LoopNest &nest = program.nests()[n];
        RuleContext ctx(program, nest, n, machine, options);
        for (const auto &rule : lintRules()) {
            try {
                rule->check(ctx, result.diagnostics);
            } catch (const FatalError &err) {
                // The analysis itself aborted (overflowing subscript
                // tests, say): surface that as an error finding so the
                // nest is still flagged, and keep the other rules.
                SourceLoc loc;
                if (nest.depth() > 0)
                    loc = nest.loop(0).loc;
                result.diagnostics.push_back(ctx.finding(
                    rule->id(), LintSeverity::Error, loc,
                    concat("analysis aborted: ", err.what())));
            }
        }
    }

    std::erase_if(result.diagnostics,
                  [&](const LintDiagnostic &diag) {
                      return static_cast<int>(diag.severity) <
                             static_cast<int>(options.minSeverity);
                  });

    std::stable_sort(
        result.diagnostics.begin(), result.diagnostics.end(),
        [](const LintDiagnostic &a, const LintDiagnostic &b) {
            return std::make_tuple(-static_cast<int>(a.severity),
                                   a.nestIndex, a.loc.line, a.loc.col,
                                   a.ruleId) <
                   std::make_tuple(-static_cast<int>(b.severity),
                                   b.nestIndex, b.loc.line, b.loc.col,
                                   b.ruleId);
        });
    return result;
}

} // namespace ujam
