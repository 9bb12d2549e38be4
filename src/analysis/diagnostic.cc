#include "analysis/diagnostic.hh"

#include <algorithm>

#include "support/diagnostics.hh"

namespace ujam
{

const char *
lintSeverityName(LintSeverity severity)
{
    switch (severity) {
      case LintSeverity::Note:
        return "note";
      case LintSeverity::Warn:
        return "warning";
      case LintSeverity::Error:
        return "error";
    }
    return "?";
}

std::string
LintDiagnostic::toString(const std::string &source_name) const
{
    std::string out = source_name;
    if (loc.known()) {
        out += ':';
        out += loc.toString();
    }
    out += ": ";
    out += lintSeverityName(severity);
    out += ": ";
    out += message;
    out += " [" + ruleId + "]";
    return out;
}

std::size_t
LintResult::countOf(LintSeverity severity) const
{
    return static_cast<std::size_t>(
        std::count_if(diagnostics.begin(), diagnostics.end(),
                      [severity](const LintDiagnostic &diag) {
                          return diag.severity == severity;
                      }));
}

bool
LintResult::nestHasErrors(std::size_t nest_index) const
{
    return std::any_of(diagnostics.begin(), diagnostics.end(),
                       [nest_index](const LintDiagnostic &diag) {
                           return diag.nestIndex == nest_index &&
                                  diag.severity == LintSeverity::Error;
                       });
}

std::string
LintResult::summary() const
{
    return concat(errorCount(), " errors, ", warnCount(), " warnings, ",
                  noteCount(), " notes");
}

} // namespace ujam
