#include "report/report.hh"

#include <algorithm>
#include <sstream>

#include "codegen/checksum.hh"
#include "core/rrs.hh"
#include "ir/printer.hh"
#include "support/json.hh"
#include "support/string_utils.hh"

namespace ujam
{

std::string
reuseSummary(const LoopNest &nest)
{
    std::ostringstream os;
    const std::size_t depth = nest.depth();
    Subspace inner = depth > 0
                         ? Subspace::coordinate(depth, {depth - 1})
                         : Subspace::zero(0);
    for (const UniformlyGeneratedSet &ugs : partitionUGS(nest.accesses())) {
        std::size_t writes = 0;
        for (const Access &member : ugs.members)
            writes += member.isWrite;
        os << padRight(ugs.array, 10) << " refs=" << ugs.members.size()
           << " (writes " << writes << ")";
        os << "  self=" << selfReuseName(classifySelfReuse(ugs, inner));
        if (ugs.innerInvariant())
            os << "  inner-invariant";
        if (!ugs.analyzable())
            os << "  [not SIV separable]";
        os << "  gT=" << groupTemporalSets(ugs, inner).size()
           << " gS=" << groupSpatialSets(ugs, inner).size();
        if (ugs.analyzable()) {
            RrsAnalysis rrs = computeRegisterReuseSets(ugs);
            os << " rrs=" << rrs.sets.size()
               << " regs=" << rrs.totalRegisters();
        }
        os << "\n";
    }
    return os.str();
}

std::string
analysisReport(const LoopNest &nest, const MachineModel &machine,
               const OptimizerConfig &config, const ReportOptions &options)
{
    std::ostringstream os;
    os << "=== ujam analysis report: "
       << (nest.name().empty() ? "<unnamed>" : nest.name()) << " ===\n\n";
    os << renderLoopNest(nest) << "\n";
    os << "machine: " << machine.name << "  (bM = "
       << formatFixed(machine.machineBalance(), 3) << ", "
       << machine.fpRegisters << " fp registers, "
       << machine.cacheBytes / 1024 << "KB cache, "
       << machine.lineElems() << "-element lines)\n\n";

    if (options.showSets) {
        os << "--- uniformly generated sets (localized: innermost) "
              "---\n";
        os << reuseSummary(nest) << "\n";
    }

    UnrollDecision decision;
    if (nest.depth() < 2) {
        decision = chooseUnrollAmounts(nest, machine, config);
    } else {
        UnrollProblem problem = unrollProblem(nest, machine, config);
        const UnrollSpace &space = problem.space;
        NestTables tables =
            buildNestTables(nest, space, problem.localized);
        decision = decideUnroll(nest, machine, config, problem, tables);
        if (options.showTables && !space.dims().empty()) {
            os << "--- unroll tables (loops";
            for (std::size_t k : space.dims())
                os << " " << nest.loop(k).iv;
            os << ") ---\n";
            os << padLeft("u", 12) << padLeft("VM", 8)
               << padLeft("regs", 8) << padLeft("misses", 10)
               << padLeft("bL", 8) << "\n";
            // Rows come from the decision's own tables: a cell depends
            // on its point alone, not on the box it was built over.
            LocalityParams locality = machineLocality(machine, config);
            IntVector shown = space.maxVector();
            for (std::size_t k : space.dims())
                shown[k] = std::min(shown[k], options.maxUnrollShown);
            for (std::size_t i = 0; i < space.size(); ++i) {
                IntVector u = space.vectorAt(i);
                if (!u.allLessEq(shown))
                    continue;
                BalanceResult balance =
                    evaluateUnrollVector(tables, nest, u, machine, config);
                os << padLeft(u.toString(), 12)
                   << padLeft(std::to_string(tables.rrsTotal.at(u)), 8)
                   << padLeft(std::to_string(tables.registersTotal.at(u)),
                              8)
                   << padLeft(formatFixed(
                                  tables.mainMemoryAccesses(u, locality), 2),
                              10)
                   << padLeft(formatFixed(balance.balance, 3), 8) << "\n";
            }
            os << "\n";
        }
    }

    if (options.showDecision) {
        os << "--- decision ---\n";
        os << "safety bounds: " << decision.safetyBounds.toString()
           << "\n";
        os << decision.toString() << "\n";
        if (!decision.transforms()) {
            os << "(loop left unchanged: no admissible vector improves "
                  "|bL - bM|)\n";
        }
    }
    return os.str();
}

std::string
safetyReport(const PipelineResult &result)
{
    std::ostringstream os;
    os << "=== ujam safety report ===\n";
    std::size_t lint_skips = 0;
    for (const NestOutcome &outcome : result.outcomes) {
        if (!outcome.lintSkipped)
            continue;
        ++lint_skips;
        os << (outcome.name.empty() ? "<unnamed>" : outcome.name)
           << ": skipped by strict lint ("
           << result.lint.errorCount() << " error finding(s) in the "
           << "run; see the lint report)\n";
    }
    if (result.containedFaults() == 0) {
        os << "no faults contained; all "
           << result.outcomes.size() - lint_skips
           << " transformed nest(s) passed every enabled check\n";
        return os.str();
    }
    for (const StageDiagnostic &diag : result.programDiagnostics)
        os << "<program>: " << diag.toString() << "\n";
    for (const NestOutcome &outcome : result.outcomes) {
        for (const StageDiagnostic &diag : outcome.contained) {
            os << (outcome.name.empty() ? "<unnamed>" : outcome.name)
               << ": " << diag.toString() << "\n";
        }
    }
    os << result.containedFaults()
       << " fault(s) contained; each affected nest was rolled back to "
          "its pre-stage IR and the run continued\n";
    return os.str();
}

namespace
{

void
intVectorJson(JsonWriter &json, const char *name, const IntVector &v)
{
    json.key(name).beginArray();
    for (std::int64_t elem : v)
        json.value(elem);
    json.endArray();
}

void
diagnosticsJson(JsonWriter &json, const char *name,
                const std::vector<StageDiagnostic> &diags)
{
    json.key(name).beginArray();
    for (const StageDiagnostic &diag : diags)
        json.value(diag.toString());
    json.endArray();
}

void
lintJson(JsonWriter &json, const LintResult &lint)
{
    json.key("lint").beginObject();
    json.field("source", lint.sourceName);
    json.field("errors", std::uint64_t(lint.errorCount()));
    json.field("warnings", std::uint64_t(lint.warnCount()));
    json.field("notes", std::uint64_t(lint.noteCount()));
    json.key("diagnostics").beginArray();
    for (const LintDiagnostic &diag : lint.diagnostics) {
        json.beginObject();
        json.field("rule", diag.ruleId);
        json.field("severity", lintSeverityName(diag.severity));
        if (diag.loc.known()) {
            json.field("line", std::int64_t(diag.loc.line));
            json.field("col", std::int64_t(diag.loc.col));
        }
        json.field("nest", diag.nestName);
        json.field("nest_index", std::uint64_t(diag.nestIndex));
        json.field("message", diag.message);
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

} // namespace

std::string
pipelineResultJson(const PipelineResult &result)
{
    JsonWriter json;
    json.beginObject();

    json.key("summary").beginObject();
    json.field("nests", std::uint64_t(result.outcomes.size()));
    json.field("fusions", std::uint64_t(result.fusions));
    json.field("contained_faults",
               std::uint64_t(result.containedFaults()));
    json.endObject();

    json.key("outcomes").beginArray();
    for (const NestOutcome &outcome : result.outcomes) {
        json.beginObject();
        json.field("name", outcome.name);
        json.field("lint_skipped", outcome.lintSkipped);
        json.field("normalized", outcome.normalized);
        json.field("pieces", std::uint64_t(outcome.pieces));
        json.field("interchanged", outcome.interchanged);
        if (outcome.interchanged) {
            json.key("permutation").beginArray();
            for (std::size_t k : outcome.permutation)
                json.value(std::uint64_t(k));
            json.endArray();
        }
        intVectorJson(json, "unroll", outcome.decision.unroll);
        intVectorJson(json, "safety_bounds",
                      outcome.decision.safetyBounds);
        json.field("predicted_balance",
                   outcome.decision.predictedBalance);
        json.field("machine_balance",
                   outcome.decision.machineBalance);
        json.field("registers", outcome.decision.registers);
        json.field("loads_removed",
                   std::uint64_t(outcome.loadsRemoved));
        json.field("prefetches", std::uint64_t(outcome.prefetches));
        diagnosticsJson(json, "contained", outcome.contained);
        json.endObject();
    }
    json.endArray();

    diagnosticsJson(json, "program_diagnostics",
                    result.programDiagnostics);

    if (!result.lint.sourceName.empty())
        lintJson(json, result.lint);

    json.field("program", renderProgram(result.program));

    json.endObject();
    return json.str();
}

std::string
lintResultJson(const LintResult &lint)
{
    JsonWriter json;
    json.beginObject();
    lintJson(json, lint);
    json.endObject();
    return json.str();
}

std::string
codegenResultJson(const PipelineResult &result,
                  const CodegenUnit &original,
                  const CodegenUnit &transformed, std::uint64_t seed,
                  const std::string &sanitizer,
                  const std::string &compiler)
{
    JsonWriter json;
    json.beginObject();

    json.key("summary").beginObject();
    json.field("nests", std::uint64_t(result.outcomes.size()));
    json.field("fusions", std::uint64_t(result.fusions));
    json.field("contained_faults",
               std::uint64_t(result.containedFaults()));
    json.endObject();

    json.field("seed", std::uint64_t(seed));
    if (!sanitizer.empty())
        json.field("sanitizer", sanitizer);
    if (!compiler.empty())
        json.field("compiler", compiler);
    json.field("bounds_proven_original", original.boundsProven);
    json.field("bounds_proven_transformed", transformed.boundsProven);
    json.key("params").beginObject();
    for (const auto &[name, value] : transformed.params)
        json.field(name, std::int64_t(value));
    json.endObject();
    json.key("arrays").beginArray();
    for (const std::string &name : transformed.arrayNames)
        json.value(name);
    json.endArray();

    json.key("entry").beginObject();
    json.field("init", "ujam_init");
    json.field("run", "ujam_run");
    json.field("checksum", "ujam_checksum");
    json.endObject();

    json.field("original_c", original.source);
    json.field("transformed_c", transformed.source);

    json.endObject();
    return json.str();
}

std::string
codegenTimingReport(const std::vector<CodegenVariantTiming> &rows)
{
    std::ostringstream os;
    os << padRight("variant", 14) << padLeft("emit ms", 10)
       << padLeft("compile ms", 12) << padLeft("run ms", 10)
       << "  checksum\n";
    for (const CodegenVariantTiming &row : rows) {
        os << padRight(row.label, 14)
           << padLeft(formatFixed(row.emitSeconds * 1e3, 3), 10)
           << padLeft(formatFixed(row.compileSeconds * 1e3, 3), 12)
           << padLeft(formatFixed(row.runSeconds * 1e3, 3), 10) << "  "
           << checksumHex(row.checksum) << "\n";
    }
    return os.str();
}

} // namespace ujam
