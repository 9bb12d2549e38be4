/**
 * @file
 * One name space over both corpora -- the Table-2 suite loops and the
 * generated scenario families -- and the one loader for CLI inputs.
 *
 * The CLIs' --suite NAME accepts either kind of name; a ':' marks a
 * scenario ("stencil2d:radius=2:7"), anything else is a suite-loop
 * name ("dmxpy0"). The service's "scenario" request field takes
 * scenario names only. Resolution is deterministic, so two runs (or
 * two service workers) given the same name always see byte-identical
 * source.
 */

#ifndef UJAM_SCENARIOS_CORPUS_HOOK_HH
#define UJAM_SCENARIOS_CORPUS_HOOK_HH

#include <string>

#include "ir/loop_nest.hh"

namespace ujam
{

/** One CLI input, loaded and parsed. */
struct LoadedProgram
{
    std::string name;   //!< as given: a path, loop or scenario name
    std::string source; //!< the DSL text
    Program program;
};

/**
 * Load a CLI input: a DSL file, or (corpus) a Table-2 suite loop or
 * scenario name.
 *
 * The program's sourceName(), which reports and generated C print, is
 * the path for a file and "scenario:" + the canonical name for a
 * scenario. A suite loop is "suite:" + its name when loaded for the
 * linter (unvalidated) and loadSuiteProgram's "<input>" otherwise.
 *
 * @param input    A path, or with corpus a suite-loop/scenario name.
 * @param corpus   Resolve input as a corpus name, not a path.
 * @param validate Reject structurally invalid programs, as every
 *                 pipeline CLI does; the linter reports on them.
 * @throws FatalError when the file cannot be read, the name is
 *         unknown or not a valid scenario, the text does not parse,
 *         or (validate) the program is invalid.
 */
LoadedProgram loadProgramInput(const std::string &input, bool corpus,
                               bool validate);

/**
 * @return The --list text: every Table-2 suite loop (name and
 * description), then the scenario-family catalog with parameter
 * schemas.
 */
std::string renderCorpusList();

/**
 * @return The name rewritten for use as a file stem: scenario
 * punctuation (':', ',', '=') becomes '_'; other names pass through.
 */
std::string corpusFileStem(const std::string &name);

} // namespace ujam

#endif // UJAM_SCENARIOS_CORPUS_HOOK_HH
