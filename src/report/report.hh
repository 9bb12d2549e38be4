/**
 * @file
 * Human-readable analysis reports.
 *
 * Production loop optimizers ship a report facility (-qreport,
 * -opt-report) explaining what the analysis saw and why it chose a
 * transformation. This module renders, for one nest: the uniformly
 * generated sets with their reuse spaces and partitions, the unroll
 * tables, the safety bounds, and the decision with its predicted
 * balance arithmetic -- everything a user needs to audit a choice.
 */

#ifndef UJAM_REPORT_REPORT_HH
#define UJAM_REPORT_REPORT_HH

#include <string>
#include <vector>

#include "codegen/c_emitter.hh"
#include "core/optimizer.hh"
#include "driver/driver.hh"

namespace ujam
{

/** Report verbosity. */
struct ReportOptions
{
    bool showSets = true;     //!< UGS/GTS/GSS/RRS structure
    bool showTables = true;   //!< unroll tables (can be long)
    bool showDecision = true; //!< the chosen vector and its numbers
    std::int64_t maxUnrollShown = 4; //!< table rows to print
};

/**
 * Render the full analysis report for one nest on one machine.
 *
 * @param nest    The nest (pre-transformation).
 * @param machine The target the optimizer aims at.
 * @param config  The optimizer configuration used for the decision.
 * @param options Verbosity switches.
 * @return Multi-line text.
 */
std::string analysisReport(const LoopNest &nest,
                           const MachineModel &machine,
                           const OptimizerConfig &config = {},
                           const ReportOptions &options = {});

/** @return One line per UGS: array, members, reuse classification. */
std::string reuseSummary(const LoopNest &nest);

/**
 * Render the safety-net record of a pipeline run: every contained
 * fault (program- and nest-level) with its stage, failure class and
 * message, or a clean bill of health.
 *
 * @param result A finished pipeline run.
 * @return Multi-line text.
 */
std::string safetyReport(const PipelineResult &result);

/**
 * Render a pipeline run as one compact JSON object (the shared
 * support/json writer, single line): the transformed program text,
 * per-nest outcomes, contained faults and -- when lint ran -- the
 * analyzer findings. This is the machine-readable twin of
 * PipelineResult::summary() and the payload ujam-serve caches and
 * returns; it is deterministic for a given result (no timings, no
 * environment).
 *
 * @param result A finished pipeline run.
 * @return One-line JSON object text.
 */
std::string pipelineResultJson(const PipelineResult &result);

/**
 * @return An analyzer run as one compact JSON object (same "lint"
 * schema pipelineResultJson embeds, as a standalone document): the
 * service's lint payload and ujam-lint's --format=json output.
 */
std::string lintResultJson(const LintResult &lint);

/**
 * Render a code-generation run as one compact JSON object: the
 * pipeline summary (nests, fusions, contained faults), the resolved
 * parameters and array names, the emission seed, the entry-point ABI
 * and both generated translation units. Like pipelineResultJson this
 * is deterministic for given inputs (no timings, no environment), so
 * ujam-serve can cache it content-addressed.
 *
 * @param result      The pipeline run that produced transformed.
 * @param original    The pre-transformation emission.
 * @param transformed The post-transformation emission.
 * @param seed        The default seed both units were emitted with.
 * @return One-line JSON object text.
 */
/**
 * The service's codegen payload. `sanitizer` names the sanitizers a
 * --run verification would compile with ("ubsan,asan") and `compiler`
 * the host toolchain identity (`cc --version` first line) a --run
 * would use; each field is emitted only when non-empty, so cached
 * service payloads -- which pass neither -- stay deterministic and
 * payloads from hosts without sanitizer support are unchanged.
 */
std::string codegenResultJson(const PipelineResult &result,
                              const CodegenUnit &original,
                              const CodegenUnit &transformed,
                              std::uint64_t seed,
                              const std::string &sanitizer = "",
                              const std::string &compiler = "");

/** One compiled variant's measurements for codegenTimingReport. */
struct CodegenVariantTiming
{
    std::string label;          //!< "original", "transformed", ...
    double emitSeconds = 0;     //!< emitter wall time
    double compileSeconds = 0;  //!< host-compiler wall time
    double runSeconds = 0;      //!< binary wall time
    std::uint64_t checksum = 0; //!< the printed combined checksum
};

/**
 * @return A human-readable table of per-variant emit/compile/run
 * times and checksums (the ujam-codegen --run epilogue).
 */
std::string codegenTimingReport(
    const std::vector<CodegenVariantTiming> &rows);

} // namespace ujam

#endif // UJAM_REPORT_REPORT_HH
