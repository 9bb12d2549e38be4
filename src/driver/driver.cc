#include "driver/driver.hh"

#include <algorithm>
#include <memory>
#include <sstream>

#include "driver/oracle.hh"
#include "ir/validate.hh"
#include "support/diagnostics.hh"
#include "support/string_utils.hh"
#include "support/thread_pool.hh"
#include "transform/distribution.hh"
#include "transform/fusion.hh"
#include "transform/interchange.hh"
#include "transform/normalize.hh"
#include "transform/scalar_replacement.hh"
#include "transform/unroll_and_jam.hh"

namespace ujam
{

const char *
lintModeName(LintMode mode)
{
    switch (mode) {
      case LintMode::Off:
        return "off";
      case LintMode::Warn:
        return "warn";
      case LintMode::Strict:
        return "strict";
    }
    return "?";
}

const char *
stageName(Stage stage)
{
    switch (stage) {
      case Stage::Fuse:
        return "fuse";
      case Stage::Normalize:
        return "normalize";
      case Stage::Distribute:
        return "distribute";
      case Stage::Interchange:
        return "interchange";
      case Stage::Unroll:
        return "unroll";
      case Stage::ScalarReplace:
        return "scalar-replace";
      case Stage::Prefetch:
        return "prefetch";
    }
    return "?";
}

const char *
stageDiagnosticKindName(StageDiagnostic::Kind kind)
{
    switch (kind) {
      case StageDiagnostic::Kind::Fatal:
        return "fatal";
      case StageDiagnostic::Kind::Panic:
        return "panic";
      case StageDiagnostic::Kind::Validator:
        return "validator";
      case StageDiagnostic::Kind::Oracle:
        return "oracle";
    }
    return "?";
}

std::string
StageDiagnostic::toString() const
{
    return concat(stageName(stage), ":", stageDiagnosticKindName(kind),
                  ": ", message);
}

namespace
{

/** Internal signal: a stage output was rejected by a checker. */
struct StageRejection
{
    StageDiagnostic::Kind kind;
    std::string message;
};

/**
 * Injected-fault payload for FaultKind::Validator: make the stage
 * output structurally invalid (a non-positive step), so the real
 * validator must notice and the real rollback path must run.
 */
void
corruptStructurally(std::vector<LoopNest> &nests)
{
    if (!nests.empty() && nests.front().depth() > 0)
        nests.front().loop(0).step = -1;
}

/**
 * Injected-fault payload for FaultKind::Oracle: keep the output
 * structurally valid but change its semantics (perturb the first
 * statement), so only differential execution can notice.
 */
void
corruptSemantically(std::vector<LoopNest> &nests)
{
    for (LoopNest &nest : nests) {
        for (Stmt &stmt : nest.body()) {
            if (stmt.isPrefetch())
                continue;
            stmt.setRhs(Expr::binary(BinOp::Add, stmt.rhs(),
                                     Expr::constant(1.0)));
            return;
        }
    }
}

/**
 * The oracle's interpretation of a nest's committed state: one run per
 * trial, interpreted the first time a stage needs it (null until
 * then). A committed stage hands over its candidate's runs, so the
 * next stage interprets only its own output.
 */
using OracleState = std::vector<std::unique_ptr<OracleRun>>;

/**
 * Run one pipeline stage under the containment guard.
 *
 * The body maps the current nest list to the stage's output list (and
 * may tighten the post-stage validation options). On success the
 * output replaces `current`, and its oracle runs replace `kept`. On
 * any FatalError, PanicError, injected fault, validator rejection, or
 * oracle mismatch, `current` and `kept` are left as they were,
 * `outcome` (when given) is restored to its pre-stage value, and a
 * StageDiagnostic lands in `sink`.
 *
 * All state touched here is local to the (nest, stage) pair -- shared
 * inputs are read-only -- so containment is race-free at any thread
 * width.
 *
 * @return True iff the stage output was committed.
 */
template <typename Body>
bool
guardedStage(Stage stage, std::size_t nest_index, const Program &context,
             const SafetyConfig &safety,
             const std::vector<FaultSpec> &faults, bool bit_exact,
             std::vector<LoopNest> &current, OracleState &kept,
             NestOutcome *outcome, std::vector<StageDiagnostic> &sink,
             Body &&body)
{
    std::vector<LoopNest> before = current;
    NestOutcome snapshot;
    if (outcome)
        snapshot = *outcome;

    StageDiagnostic diag;
    diag.stage = stage;
    try {
        std::optional<FaultKind> fault =
            requestedFault(faults, stageName(stage), nest_index);
        if (fault == FaultKind::Throw) {
            fatal("injected fault at stage ", stageName(stage),
                  ", nest ", nest_index);
        }
        if (fault == FaultKind::Panic) {
            panic("injected fault at stage ", stageName(stage),
                  ", nest ", nest_index);
        }

        ValidateOptions vopts;
        std::vector<LoopNest> after = body(current, vopts);
        if (fault == FaultKind::Validator)
            corruptStructurally(after);
        if (fault == FaultKind::Oracle)
            corruptSemantically(after);

        if (safety.validate) {
            for (const LoopNest &nest : after) {
                std::vector<std::string> problems =
                    validateNestStrict(context, nest, vopts);
                if (!problems.empty()) {
                    throw StageRejection{
                        StageDiagnostic::Kind::Validator,
                        problems.front()};
                }
            }
        }
        if (safety.oracle) {
            OracleConfig oracle_config;
            oracle_config.seed = safety.oracleSeed;
            oracle_config.trials = safety.oracleTrials;
            oracle_config.tolerance = safety.tolerance;
            oracle_config.params = safety.oracleParams;
            kept.resize(std::max<std::size_t>(safety.oracleTrials, 1));
            // A stage that changed nothing computes what its input
            // computed: the kept runs are its candidate's runs. They
            // are still made first, so a reference that cannot be
            // interpreted rolls the stage back with the same message.
            const bool unchanged = after == before;
            OracleState runs;
            for (std::size_t t = 0; t < kept.size(); ++t) {
                if (!kept[t]) {
                    kept[t] = std::make_unique<OracleRun>(
                        context, before, oracle_config, nest_index, t);
                }
                std::string mismatch = kept[t]->failure();
                if (mismatch.empty() && !unchanged) {
                    runs.push_back(std::make_unique<OracleRun>(
                        context, after, oracle_config, *kept[t]));
                    mismatch = compareOracleRuns(*kept[t], *runs.back(),
                                                 bit_exact, oracle_config);
                }
                if (!mismatch.empty()) {
                    throw StageRejection{StageDiagnostic::Kind::Oracle,
                                         mismatch};
                }
            }
            if (!unchanged)
                kept = std::move(runs);
        }

        current = std::move(after);
        return true;
    } catch (const StageRejection &rejection) {
        diag.kind = rejection.kind;
        diag.message = rejection.message;
    } catch (const FatalError &err) {
        diag.kind = StageDiagnostic::Kind::Fatal;
        diag.message = err.what();
    } catch (const PanicError &err) {
        diag.kind = StageDiagnostic::Kind::Panic;
        diag.message = err.what();
    }

    current = std::move(before);
    if (outcome)
        *outcome = std::move(snapshot);
    sink.push_back(std::move(diag));
    return false;
}

} // namespace

std::size_t
PipelineResult::containedFaults() const
{
    std::size_t count = programDiagnostics.size();
    for (const NestOutcome &outcome : outcomes)
        count += outcome.contained.size();
    return count;
}

std::string
PipelineResult::summary() const
{
    std::ostringstream os;
    if (!lint.sourceName.empty() && !lint.diagnostics.empty())
        os << "lint: " << lint.summary() << "\n";
    for (const StageDiagnostic &diag : programDiagnostics)
        os << "<program>     ! contained " << diag.toString() << "\n";
    for (const NestOutcome &outcome : outcomes) {
        os << padRight(outcome.name.empty() ? "<unnamed>" : outcome.name,
                       12);
        if (outcome.lintSkipped)
            os << " lint-skipped";
        if (outcome.normalized)
            os << " normalized";
        if (outcome.pieces > 1)
            os << " distributed(" << outcome.pieces << ")";
        if (outcome.interchanged) {
            os << " interchanged(";
            for (std::size_t i = 0; i < outcome.permutation.size(); ++i)
                os << (i ? "," : "") << outcome.permutation[i];
            os << ")";
        }
        os << " " << outcome.decision.toString();
        if (outcome.loadsRemoved > 0)
            os << " loads-removed=" << outcome.loadsRemoved;
        if (outcome.prefetches > 0)
            os << " prefetches=" << outcome.prefetches;
        os << "\n";
        for (const StageDiagnostic &diag : outcome.contained)
            os << "    ! contained " << diag.toString() << "\n";
    }
    if (containedFaults() > 0) {
        os << "contained " << containedFaults()
           << " fault(s); affected nests kept their pre-stage form\n";
    }
    return os.str();
}

PipelineResult
optimizeProgram(const Program &program, const MachineModel &machine,
                const PipelineConfig &config)
{
    PipelineResult result;

    std::vector<FaultSpec> faults = config.safety.faults;
    for (FaultSpec &spec : faultSpecsFromEnv())
        faults.push_back(std::move(spec));

    Program staged = program;
    if (config.fuse) {
        std::size_t fusion_count = 0;
        std::vector<LoopNest> fused_nests = program.nests();
        OracleState fused_oracle;
        bool committed = guardedStage(
            Stage::Fuse, 0, program, config.safety, faults,
            /*bit_exact=*/true, fused_nests, fused_oracle, nullptr,
            result.programDiagnostics,
            [&](const std::vector<LoopNest> &, ValidateOptions &) {
                auto [fused, count] = fuseProgram(program);
                fusion_count = count;
                return std::move(fused.nests());
            });
        if (committed) {
            staged.nests() = std::move(fused_nests);
            result.fusions = fusion_count;
        }
    }

    result.program = staged;
    result.program.nests().clear();

    // Static analysis runs on the staged (post-fusion) program so its
    // nest indices line up with the outcomes below. In strict mode a
    // nest with an error finding is never handed to the stages at
    // all: the analyzer predicted the safety net would have to roll
    // it back, so it keeps its input form outright.
    std::vector<bool> lint_skip(staged.nests().size(), false);
    if (config.lint != LintMode::Off) {
        result.lint =
            lintProgram(staged, machine, config.lintOptions);
        if (config.lint == LintMode::Strict) {
            for (std::size_t n = 0; n < staged.nests().size(); ++n)
                lint_skip[n] = result.lint.nestHasErrors(n);
        }
    }

    LocalityParams locality = machineLocality(machine, config.optimizer);

    // The dependence range pre-filter evaluates bounds under the
    // program's own parameter defaults (the bindings the differential
    // oracle interprets under as well).
    OptimizerConfig opt_config = config.optimizer;
    if (opt_config.params.empty())
        opt_config.params = staged.paramDefaults();

    // Every nest is optimized independently into its own slot; the
    // slots are merged in input order below, so the parallel result
    // is bit-identical to the serial one for any thread count.
    struct NestSlot
    {
        NestOutcome outcome;
        std::vector<LoopNest> transformed;
    };
    const std::vector<LoopNest> &nests = staged.nests();
    std::vector<NestSlot> slots(nests.size());

    auto optimizeNest = [&](std::size_t index) {
        const LoopNest &original = nests[index];
        NestSlot &slot = slots[index];
        NestOutcome &outcome = slot.outcome;
        outcome.name = original.name();

        if (lint_skip[index]) {
            outcome.lintSkipped = true;
            outcome.decision.unroll = IntVector(original.depth());
            outcome.decision.safetyBounds = IntVector(original.depth());
            slot.transformed = {original};
            return;
        }

        // The nest's working state: the list of nests it currently
        // expands to, and the oracle's runs of it. Each guarded stage
        // either advances both or leaves them untouched.
        std::vector<LoopNest> current{original};
        OracleState oracle_state;
        auto guard = [&](Stage stage, bool bit_exact, auto &&body) {
            return guardedStage(stage, index, staged, config.safety,
                                faults, bit_exact, current, oracle_state,
                                &outcome, outcome.contained,
                                std::forward<decltype(body)>(body));
        };

        if (config.normalize) {
            guard(Stage::Normalize, true,
                  [&](const std::vector<LoopNest> &in,
                      ValidateOptions &vopts) {
                      NormalizeResult normalized =
                          normalizeNest(in.front());
                      outcome.normalized =
                          std::count(normalized.normalized.begin(),
                                     normalized.normalized.end(),
                                     true) > 0;
                      vopts.requireStepOne =
                          normalized.fullyNormalized();
                      std::vector<LoopNest> out;
                      out.push_back(std::move(normalized.nest));
                      return out;
                  });
        }

        if (config.distribute) {
            guard(Stage::Distribute, true,
                  [&](const std::vector<LoopNest> &in,
                      ValidateOptions &) {
                      std::vector<LoopNest> out;
                      for (const LoopNest &nest : in) {
                          DistributionResult distributed =
                              distributeNest(nest);
                          for (LoopNest &piece : distributed.nests)
                              out.push_back(std::move(piece));
                      }
                      outcome.pieces = out.size();
                      return out;
                  });
        }

        if (config.interchange) {
            guard(Stage::Interchange, false,
                  [&](const std::vector<LoopNest> &in,
                      ValidateOptions &) {
                      std::vector<LoopNest> out;
                      for (const LoopNest &piece : in) {
                          InterchangeResult order =
                              chooseLoopOrder(piece, locality);
                          outcome.interchanged |= order.changed;
                          outcome.permutation = order.permutation;
                          out.push_back(std::move(order.nest));
                      }
                      return out;
                  });
        }

        guard(Stage::Unroll, false,
              [&](const std::vector<LoopNest> &in, ValidateOptions &) {
                  std::vector<LoopNest> out;
                  for (const LoopNest &piece : in) {
                      // The summary keeps the last piece's decision;
                      // pieces of one nest rarely diverge and the full
                      // detail is in the transformed program itself.
                      if (piece.depth() < 2) {
                          outcome.analysis.reset();
                          outcome.decision = chooseUnrollAmounts(
                              piece, machine, opt_config);
                      } else {
                          outcome.analysis =
                              unrollAnalysis(piece, machine, opt_config);
                          outcome.decision = decideUnroll(
                              piece, machine, opt_config,
                              outcome.analysis->problem,
                              outcome.analysis->tables);
                      }
                      std::vector<LoopNest> expanded = unrollAndJamNest(
                          piece, outcome.decision.unroll);
                      for (LoopNest &bit : expanded)
                          out.push_back(std::move(bit));
                  }
                  return out;
              });

        if (config.scalarReplace) {
            guard(Stage::ScalarReplace, false,
                  [&](const std::vector<LoopNest> &in,
                      ValidateOptions &) {
                      std::vector<LoopNest> out;
                      for (const LoopNest &bit : in) {
                          // The transform honors the same register
                          // file the optimizer's constraint assumed.
                          ScalarReplacementConfig sr_config;
                          sr_config.maxRegisters = machine.fpRegisters;
                          ScalarReplacementResult replaced =
                              scalarReplace(bit, sr_config);
                          outcome.loadsRemoved += replaced.loadsRemoved;
                          out.push_back(std::move(replaced.nest));
                      }
                      return out;
                  });
        }

        if (config.prefetch) {
            guard(Stage::Prefetch, true,
                  [&](const std::vector<LoopNest> &in,
                      ValidateOptions &) {
                      std::vector<LoopNest> out;
                      for (const LoopNest &bit : in) {
                          PrefetchResult prefetched = insertPrefetches(
                              bit, config.prefetchConfig);
                          outcome.prefetches +=
                              prefetched.prefetchesInserted;
                          out.push_back(std::move(prefetched.nest));
                      }
                      return out;
                  });
        }

        slot.transformed = std::move(current);
    };

    parallelFor(nests.size(), config.threads, optimizeNest);

    for (NestSlot &slot : slots) {
        for (LoopNest &bit : slot.transformed)
            result.program.addNest(std::move(bit));
        result.outcomes.push_back(std::move(slot.outcome));
    }
    return result;
}

} // namespace ujam
