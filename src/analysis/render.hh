/**
 * @file
 * Finding renderers: human text and SARIF 2.1.0 (the JSON document is
 * report/report.hh's lintResultJson, shared with the service).
 *
 * The text renderer optionally quotes the offending source line with
 * a caret; the caret column counts code points, not bytes, so UTF-8
 * text earlier on the line does not push it off target. The SARIF
 * writer emits keys in a fixed order so its output is stable and
 * golden-testable.
 */

#ifndef UJAM_ANALYSIS_RENDER_HH
#define UJAM_ANALYSIS_RENDER_HH

#include <string>
#include <utility>
#include <vector>

#include "analysis/diagnostic.hh"

namespace ujam
{

/**
 * @return The source line at loc plus a caret line under its column,
 * both indented by two spaces (empty when loc is unknown or past the
 * end of source). The column is interpreted as a 1-based *byte*
 * offset (the lexer's convention); the caret lands under the
 * corresponding code point.
 */
std::string sourceExcerpt(const std::string &source, const SourceLoc &loc);

/**
 * Render findings as compiler-style text, one per line, with the
 * summary line last. When source is non-empty, each located finding
 * quotes its line with a caret.
 */
std::string renderText(const LintResult &result,
                       const std::string &source = "");

/**
 * Render findings as a SARIF 2.1.0 log with the full rule catalog in
 * the tool's driver. Findings with unknown locations omit the region.
 *
 * When the program source is supplied, regions carry a true
 * endColumn: the region covers the token at the finding's position
 * (an identifier run, or one code point), and both columns count
 * code points so UTF-8 text earlier on the line cannot skew them --
 * the same convention as the text renderer's caret. Findings with a
 * fix whose original text is found on the line also emit a SARIF
 * fixes array with one replacement. Without source, startColumn
 * falls back to the lexer's byte column and endColumn is omitted.
 */
std::string renderSarif(const LintResult &result,
                        const std::string &source = "");

/** Like renderSarif, with one run per analyzed input. */
std::string renderSarifRuns(const std::vector<LintResult> &results);

/** Like renderSarif, one run per (result, source) pair. */
std::string renderSarifRuns(
    const std::vector<std::pair<LintResult, std::string>> &runs);

} // namespace ujam

#endif // UJAM_ANALYSIS_RENDER_HH
