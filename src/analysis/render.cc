#include "analysis/render.hh"

#include <algorithm>
#include <optional>

#include "analysis/rule.hh"
#include "support/diagnostics.hh"
#include "support/json.hh"

namespace ujam
{

namespace
{

/** Shorthand for the shared escaping writer (support/json.hh). */
std::string
quoted(const std::string &text)
{
    return jsonQuote(text);
}

/** SARIF severity levels use "warning", ours prints the same. */
const char *
sarifLevel(LintSeverity severity)
{
    return lintSeverityName(severity);
}

/** @return The 1-based source line, or nothing past the end. */
std::optional<std::string>
lineAt(const std::string &source, int line)
{
    if (line < 1)
        return std::nullopt;
    std::size_t begin = 0;
    for (int l = 1; l < line; ++l) {
        std::size_t next = source.find('\n', begin);
        if (next == std::string::npos)
            return std::nullopt;
        begin = next + 1;
    }
    std::size_t end = source.find('\n', begin);
    if (end == std::string::npos)
        end = source.size();
    return source.substr(begin, end - begin);
}

/**
 * @return The 1-based code-point column of a byte offset into text:
 * UTF-8 continuation bytes (10xxxxxx) do not advance the column.
 */
int
codePointColumn(const std::string &text, std::size_t byte)
{
    byte = std::min(byte, text.size());
    int col = 1;
    for (std::size_t i = 0; i < byte; ++i) {
        if ((static_cast<unsigned char>(text[i]) & 0xC0) != 0x80)
            ++col;
    }
    return col;
}

/**
 * @return One past the last byte of the token starting at `byte`: a
 * maximal identifier run, or a single code point for punctuation.
 */
std::size_t
tokenEndByte(const std::string &text, std::size_t byte)
{
    if (byte >= text.size())
        return text.size();
    auto is_ident = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9') || c == '_';
    };
    if (!is_ident(text[byte])) {
        std::size_t end = byte + 1;
        while (end < text.size() &&
               (static_cast<unsigned char>(text[end]) & 0xC0) == 0x80) {
            ++end;
        }
        return end;
    }
    std::size_t end = byte;
    while (end < text.size() && is_ident(text[end]))
        ++end;
    return end;
}

} // namespace

std::string
sourceExcerpt(const std::string &source, const SourceLoc &loc)
{
    if (!loc.known())
        return "";
    std::optional<std::string> text = lineAt(source, loc.line);
    if (!text)
        return "";
    std::size_t prefix_bytes =
        std::min<std::size_t>(text->size(),
                              loc.col > 0 ? loc.col - 1 : 0);
    std::size_t caret_col = codePointColumn(*text, prefix_bytes) - 1;
    return "  " + *text + "\n  " + std::string(caret_col, ' ') + "^\n";
}

std::string
renderText(const LintResult &result, const std::string &source)
{
    std::string out;
    for (const LintDiagnostic &diag : result.diagnostics) {
        out += diag.toString(result.sourceName);
        out += "\n";
        if (!source.empty())
            out += sourceExcerpt(source, diag.loc);
        for (const std::string &note : diag.notes)
            out += "    note: " + note + "\n";
    }
    out += result.summary();
    out += "\n";
    return out;
}

namespace
{

std::string
renderSarifRun(const LintResult &result, const std::string &source)
{
    std::string out =
        "    {\n"
        "      \"tool\": {\n"
        "        \"driver\": {\n"
        "          \"name\": \"ujam-lint\",\n"
        "          \"rules\": [";

    const auto &rules = lintRules();
    for (std::size_t i = 0; i < rules.size(); ++i) {
        out += i ? ",\n            {" : "\n            {";
        out += "\"id\": " + quoted(rules[i]->id());
        out += ", \"shortDescription\": {\"text\": " +
               quoted(rules[i]->summary()) + "}";
        out += ", \"defaultConfiguration\": {\"level\": " +
               quoted(sarifLevel(rules[i]->defaultSeverity())) + "}";
        out += "}";
    }
    out += "\n          ]\n"
           "        }\n"
           "      },\n"
           "      \"results\": [";

    for (std::size_t i = 0; i < result.diagnostics.size(); ++i) {
        const LintDiagnostic &diag = result.diagnostics[i];
        out += i ? ",\n        {" : "\n        {";
        out += "\"ruleId\": " + quoted(diag.ruleId);
        out += ", \"level\": " + quoted(sarifLevel(diag.severity));
        out += ", \"message\": {\"text\": " + quoted(diag.message) + "}";
        out += ", \"locations\": [{\"physicalLocation\": "
               "{\"artifactLocation\": {\"uri\": " +
               quoted(result.sourceName) + "}";
        std::optional<std::string> line;
        std::size_t start_byte = 0;
        if (diag.loc.known()) {
            if (!source.empty())
                line = lineAt(source, diag.loc.line);
            if (line) {
                start_byte = std::min<std::size_t>(
                    line->size(),
                    diag.loc.col > 0 ? diag.loc.col - 1 : 0);
                std::size_t end_byte = tokenEndByte(*line, start_byte);
                out += concat(
                    ", \"region\": {\"startLine\": ", diag.loc.line,
                    ", \"startColumn\": ",
                    codePointColumn(*line, start_byte),
                    ", \"endColumn\": ",
                    codePointColumn(*line, end_byte), "}");
            } else {
                out += concat(", \"region\": {\"startLine\": ",
                              diag.loc.line,
                              ", \"startColumn\": ", diag.loc.col, "}");
            }
        }
        out += "}}]";
        out += ", \"properties\": {\"nestIndex\": " +
               concat(diag.nestIndex) +
               ", \"nest\": " + quoted(diag.nestName) + "}";
        if (diag.fix && line) {
            // The fix applies only when the expected original text is
            // actually on the line at or after the finding's column;
            // otherwise the source drifted from the rule's model and
            // the fix is dropped.
            std::size_t at = line->find(diag.fix->original, start_byte);
            if (at != std::string::npos &&
                !diag.fix->original.empty()) {
                out += ", \"fixes\": [{\"description\": {\"text\": " +
                       quoted(diag.fix->description) +
                       "}, \"artifactChanges\": [{\"artifactLocation\""
                       ": {\"uri\": " +
                       quoted(result.sourceName) +
                       "}, \"replacements\": [{\"deletedRegion\": " +
                       concat("{\"startLine\": ", diag.loc.line,
                              ", \"startColumn\": ",
                              codePointColumn(*line, at),
                              ", \"endColumn\": ",
                              codePointColumn(
                                  *line,
                                  at + diag.fix->original.size())) +
                       "}, \"insertedContent\": {\"text\": " +
                       quoted(diag.fix->replacement) + "}}]}]}]";
            }
        }
        out += "}";
    }
    out += result.diagnostics.empty() ? "]\n" : "\n      ]\n";
    out += "    }";
    return out;
}

} // namespace

std::string
renderSarifRuns(
    const std::vector<std::pair<LintResult, std::string>> &runs)
{
    std::string out =
        "{\n"
        "  \"$schema\": "
        "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
        "  \"version\": \"2.1.0\",\n"
        "  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        out += renderSarifRun(runs[i].first, runs[i].second);
        out += i + 1 < runs.size() ? ",\n" : "\n";
    }
    out += "  ]\n"
           "}\n";
    return out;
}

std::string
renderSarifRuns(const std::vector<LintResult> &results)
{
    std::vector<std::pair<LintResult, std::string>> runs;
    runs.reserve(results.size());
    for (const LintResult &result : results)
        runs.emplace_back(result, "");
    return renderSarifRuns(runs);
}

std::string
renderSarif(const LintResult &result, const std::string &source)
{
    return renderSarifRuns({{result, source}});
}

} // namespace ujam
