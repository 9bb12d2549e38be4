/**
 * @file
 * Structured findings of the rule-based static analyzer.
 *
 * A finding ties a stable rule id (UJ001, UJ002, ...) to a severity
 * tier, a source position and a human-readable message:
 *
 *  - error: a transform applied to this nest would be unsafe or would
 *    trip the safety net -- strict pipelines skip the nest entirely;
 *  - warning: the transform stays legal but the balance/locality
 *    model's accuracy is degraded for this nest;
 *  - note: an explanation (why a candidate was rejected, what the
 *    dependence graph forbids) with no effect on pipeline behavior.
 */

#ifndef UJAM_ANALYSIS_DIAGNOSTIC_HH
#define UJAM_ANALYSIS_DIAGNOSTIC_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/source_loc.hh"

namespace ujam
{

/** Severity tiers, least severe first (so Error compares greatest). */
enum class LintSeverity
{
    Note,
    Warn,
    Error
};

/** @return "note", "warning" or "error". */
const char *lintSeverityName(LintSeverity severity);

/**
 * A machine-applicable replacement suggestion attached to a finding.
 * `original` is the exact source text the rule expects on the
 * finding's line at (or after) its column; renderers that hold the
 * source locate it and emit a SARIF fix object (deletedRegion +
 * insertedContent). When `original` is absent from the line the fix
 * is silently dropped -- the source has drifted from the rule's
 * model, and a wrong region is worse than none.
 */
struct LintFix
{
    std::string description; //!< one-line fix summary
    std::string original;    //!< text to replace on the finding's line
    std::string replacement; //!< replacement text
};

/** One finding. */
struct LintDiagnostic
{
    std::string ruleId;       //!< stable id, e.g. "UJ001"
    LintSeverity severity = LintSeverity::Note;
    SourceLoc loc;            //!< may be unknown for built programs
    std::size_t nestIndex = 0; //!< index into Program::nests()
    std::string nestName;     //!< may be empty
    std::string message;      //!< one line, no trailing newline
    std::vector<std::string> notes; //!< extra explanation lines
    std::optional<LintFix> fix;     //!< optional suggested replacement

    /** @return "file:line:col: severity: message [ruleId]". */
    std::string toString(const std::string &source_name) const;
};

/** Analyzer knobs. */
struct LintOptions
{
    std::int64_t maxUnroll = 8; //!< optimizer search bound to mirror
    LintSeverity minSeverity = LintSeverity::Note; //!< report threshold
};

/** Every finding of one analyzer run, sorted most severe first. */
struct LintResult
{
    std::string sourceName;  //!< the program's sourceName()
    std::vector<LintDiagnostic> diagnostics;

    /** @return Findings at exactly the given severity. */
    std::size_t countOf(LintSeverity severity) const;

    std::size_t errorCount() const { return countOf(LintSeverity::Error); }
    std::size_t warnCount() const { return countOf(LintSeverity::Warn); }
    std::size_t noteCount() const { return countOf(LintSeverity::Note); }

    /** @return True iff some finding for the nest is an error. */
    bool nestHasErrors(std::size_t nest_index) const;

    /** @return "N errors, M warnings, K notes". */
    std::string summary() const;
};

} // namespace ujam

#endif // UJAM_ANALYSIS_DIAGNOSTIC_HH
