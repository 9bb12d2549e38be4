#include "scenarios/corpus_hook.hh"

#include <fstream>
#include <sstream>

#include "ir/validate.hh"
#include "parser/parser.hh"
#include "scenarios/scenario.hh"
#include "support/diagnostics.hh"
#include "workloads/suite.hh"

namespace ujam
{

LoadedProgram
loadProgramInput(const std::string &input, bool corpus, bool validate)
{
    LoadedProgram loaded{input, "", {}};
    std::string source_name = input;
    if (!corpus) {
        std::ifstream in(input);
        if (!in)
            fatal("cannot open '", input, "'");
        std::ostringstream text;
        text << in.rdbuf();
        loaded.source = text.str();
    } else if (looksLikeScenarioName(input)) {
        std::string error;
        std::optional<ScenarioSpec> spec = parseScenarioSpec(input, &error);
        if (!spec)
            fatal("invalid scenario '", input, "': ", error);
        GeneratedScenario scenario = generateScenario(*spec);
        loaded.source = std::move(scenario.source);
        source_name = "scenario:" + scenario.name;
    } else {
        const SuiteLoop &loop = suiteLoop(input);
        loaded.source = loop.source;
        source_name = validate ? "<input>" : "suite:" + loop.name;
    }
    loaded.program = parseProgram(loaded.source, source_name);
    if (validate) {
        std::vector<std::string> problems =
            validateProgram(loaded.program);
        if (!problems.empty()) {
            std::string message = "invalid program '" + input + "':";
            for (const std::string &problem : problems)
                message += "\n  " + problem;
            fatal(message);
        }
    }
    return loaded;
}

std::string
renderCorpusList()
{
    std::ostringstream out;
    out << "suite loops (paper Table 2):\n";
    for (const SuiteLoop &loop : testSuite())
        out << "  " << loop.name << " -- " << loop.description
            << "\n";
    out << "\n" << renderScenarioCatalog();
    return out.str();
}

std::string
corpusFileStem(const std::string &name)
{
    std::string stem = name;
    for (char &c : stem)
        if (c == ':' || c == ',' || c == '=' || c == '*')
            c = '_';
    return stem.empty() ? std::string("program") : stem;
}

} // namespace ujam
