#include "traced.hh"

#include <algorithm>
#include <fstream>

#include "analysis/linter.hh"
#include "core/tables.hh"
#include "deps/analyzer.hh"
#include "driver/oracle.hh"
#include "ir/fingerprint.hh"
#include "ir/validate.hh"
#include "parser/parser.hh"
#include "report/report.hh"
#include "reuse/group_reuse.hh"
#include "reuse/locality.hh"
#include "reuse/ugs.hh"
#include "sim/simulator.hh"
#include "support/diagnostics.hh"
#include "support/json.hh"
#include "transform/normalize.hh"
#include "transform/scalar_replacement.hh"
#include "transform/unroll_and_jam.hh"

namespace perfbench
{

using namespace ujam;

// --- Tracer ----------------------------------------------------------------

std::int64_t
Tracer::now()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
Tracer::beginOp(std::uint32_t op, const char *name)
{
    op_ = op;
    open_.clear();
    begin(name);
}

void
Tracer::endOp()
{
    if (!open_.empty())
        end(open_.front());
    open_.clear();
}

int
Tracer::begin(const char *name)
{
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.op = op_;
    spans_.push_back(span);
    int index = static_cast<int>(spans_.size()) - 1;
    open_.push_back(index);
    spans_.back().startNs = now();
    return index;
}

int
Tracer::beginProbe(int parent, const char *name, Kind kind)
{
    int index = begin(name);
    spans_[index].parent = parent;
    spans_[index].kind = kind;
    return index;
}

void
Tracer::end(int span)
{
    spans_[span].endNs = now();
    // Close the span and anything still open inside it.
    while (!open_.empty()) {
        int top = open_.back();
        open_.pop_back();
        if (top == span)
            break;
    }
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    static const char *kinds[] = {"real", "probe", "scaffold"};
    for (const Span &span : spans_) {
        JsonWriter w;
        w.beginObject();
        w.field("name", span.name);
        w.field("start_ns", span.startNs);
        w.field("end_ns", span.endNs);
        w.field("parent", static_cast<std::int64_t>(span.parent));
        w.field("op", static_cast<std::uint64_t>(span.op));
        w.field("kind", kinds[static_cast<int>(span.kind)]);
        w.endObject();
        out << w.str() << "\n";
    }
    return static_cast<bool>(out);
}

// --- Probes ----------------------------------------------------------------

namespace
{

/** No tracer: run the body with no span. */
template <typename Body>
auto
maybeSpan(Tracer *tracer, const char *name, Body &&body)
{
    if (!tracer)
        return body();
    return tracer->span(name, body);
}

/** buildNestTables under a probe, with its own parts probed. */
NestTables
probeTables(Tracer &t, int parent, const LoopNest &nest,
            const UnrollSpace &space, const Subspace &localized)
{
    int tables = t.beginProbe(parent, "core.tables");
    NestTables built = buildNestTables(nest, space, localized);
    t.end(tables);
    std::vector<UniformlyGeneratedSet> sets = t.probe(
        tables, "reuse.ugs", [&] { return partitionUGS(nest.accesses()); });
    for (const UniformlyGeneratedSet &ugs : sets) {
        t.probe(tables, "reuse.group_sets", [&] {
            return groupTemporalSets(ugs, localized).size() +
                   groupSpatialSets(ugs, localized).size();
        });
        if (!ugs.analyzable())
            continue;
        RrsAnalysis rrs = t.probe(tables, "core.rrs", [&] {
            return computeRegisterReuseSets(ugs);
        });
        t.probe(tables, "core.register_table", [&] {
            return computeRegisterTable(ugs, rrs, space);
        });
    }
    return built;
}

/** chooseUnrollAmounts under a probe, its steps probed in order. */
UnrollDecision
probeChoose(Tracer &t, int parent, const LoopNest &nest,
            const MachineModel &machine, const OptimizerConfig &config,
            TraceCounts &counts)
{
    int choose = t.beginProbe(parent, "core.choose");
    UnrollDecision decision = chooseUnrollAmounts(nest, machine, config);
    t.end(choose);
    counts.searchedPoints += static_cast<double>(decision.searchedPoints);
    const std::size_t depth = nest.depth();
    if (depth < 2)
        return decision;

    DepOptions dep_options;
    dep_options.includeInput = false;
    dep_options.rangePrune = config.depRangePrune;
    dep_options.params = config.params;
    DependenceGraph graph = t.probe(choose, "deps.analyze", [&] {
        return analyzeDependences(nest, dep_options);
    });
    counts.depEdges += static_cast<double>(graph.edges().size());
    IntVector safety = t.probe(choose, "deps.safe_bounds", [&] {
        return safeUnrollBounds(nest, graph, config.maxUnroll);
    });
    LocalityParams locality = config.locality;
    locality.cacheLineElems = machine.lineElems();
    std::vector<std::size_t> candidates = t.probe(choose, "reuse.rank", [&] {
        return rankUnrollCandidates(nest, locality, config.maxLoops);
    });
    std::vector<std::size_t> dims;
    std::vector<std::int64_t> limits;
    for (std::size_t k : candidates) {
        if (safety[k] > 0) {
            dims.push_back(k);
            limits.push_back(safety[k]);
        }
    }
    UnrollSpace space(depth, dims, limits);
    Subspace localized = Subspace::coordinate(depth, {depth - 1});
    NestTables tables = probeTables(t, choose, nest, space, localized);
    t.probe(choose, "core.search", [&] {
        return searchUnrollSpace(nest, machine, config, tables);
    });
    return decision;
}

/**
 * The stage calls optimizeProgram makes, probed under its span: lint,
 * then per nest normalize, choose + unroll-and-jam, scalar
 * replacement, each stage's output validated and (when the safety
 * config asks) differentially executed. Fusion, distribution,
 * interchange and prefetching are off in every workload.
 */
void
probePipeline(Tracer &t, int parent, const Program &program,
              const MachineModel &machine, const PipelineConfig &config,
              const PipelineResult &result, TraceCounts &counts)
{
    if (config.lint != LintMode::Off) {
        LintResult lint = t.probe(parent, "analysis.lint", [&] {
            return lintProgram(program, machine, config.lintOptions);
        });
        counts.findings += static_cast<double>(lint.diagnostics.size());
    }
    OptimizerConfig optimizer = config.optimizer;
    if (optimizer.params.empty())
        optimizer.params = program.paramDefaults();
    OracleConfig oracle;
    oracle.seed = config.safety.oracleSeed;
    oracle.trials = config.safety.oracleTrials;
    oracle.tolerance = config.safety.tolerance;
    oracle.params = config.safety.oracleParams;

    for (std::size_t n = 0; n < program.nests().size(); ++n) {
        if (n < result.outcomes.size() && result.outcomes[n].lintSkipped)
            continue;
        std::vector<LoopNest> current{program.nests()[n]};
        auto commit = [&](std::vector<LoopNest> after,
                          const ValidateOptions &vopts, bool bit_exact) {
            counts.stagesRun += 1;
            if (config.safety.validate) {
                for (const LoopNest &nest : after) {
                    bool clean = t.probe(parent, "ir.validate", [&] {
                        return validateNestStrict(program, nest, vopts)
                            .empty();
                    });
                    if (!clean)
                        return;
                }
            }
            if (config.safety.oracle) {
                bool same = t.probe(parent, "driver.oracle", [&] {
                    return verifyEquivalence(program, current, after,
                                             bit_exact, oracle, n)
                        .ok;
                });
                if (!same)
                    return;
            }
            current = std::move(after);
        };
        try {
            if (config.normalize) {
                NormalizeResult normalized = t.probe(
                    parent, "transform.normalize",
                    [&] { return normalizeNest(current.front()); });
                ValidateOptions vopts;
                vopts.requireStepOne = normalized.fullyNormalized();
                commit({std::move(normalized.nest)}, vopts, true);
            }
            std::vector<LoopNest> unrolled;
            for (const LoopNest &piece : current) {
                UnrollDecision decision = probeChoose(
                    t, parent, piece, machine, optimizer, counts);
                std::vector<LoopNest> expanded =
                    t.probe(parent, "transform.unroll_jam", [&] {
                        return unrollAndJamNest(piece, decision.unroll);
                    });
                for (LoopNest &bit : expanded)
                    unrolled.push_back(std::move(bit));
            }
            commit(std::move(unrolled), {}, false);
            if (config.scalarReplace) {
                ScalarReplacementConfig sr_config;
                sr_config.maxRegisters = machine.fpRegisters;
                std::vector<LoopNest> replaced;
                for (const LoopNest &bit : current)
                    replaced.push_back(
                        t.probe(parent, "transform.scalar_replace", [&] {
                            return scalarReplace(bit, sr_config).nest;
                        }));
                commit(std::move(replaced), {}, false);
            }
        } catch (const FatalError &) {
            // The pipeline contained this nest's fault; stop probing it.
        } catch (const PanicError &) {
        }
    }
}

PipelineResult
tracedPipeline(Tracer *t, const Program &program,
               const MachineModel &machine, const PipelineConfig &config,
               TraceCounts &counts)
{
    if (!t)
        return optimizeProgram(program, machine, config);
    int pipeline = t->begin("driver.pipeline");
    PipelineResult result = optimizeProgram(program, machine, config);
    t->end(pipeline);
    counts.contained += static_cast<double>(result.containedFaults());
    probePipeline(*t, pipeline, program, machine, config, result, counts);
    return result;
}

/** tuneProgram, with each candidate's simulation probed. */
TuneResult
tracedTune(Tracer *t, const Program &program, const MachineModel &machine,
           const TuneConfig &config, TraceCounts &counts)
{
    if (!t)
        return tuneProgram(program, machine, config);
    int tune = t->begin("tune.tune");
    TuneResult result = tuneProgram(program, machine, config);
    t->end(tune);
    for (std::size_t n = 0; n < result.nests.size(); ++n) {
        counts.tuneCandidates +=
            static_cast<double>(result.nests[n].candidates.size());
        // The tuner measures each nest alone (all declarations, that
        // nest only) through the full pipeline at a forced vector.
        Program solo;
        solo.setSourceName(program.sourceName());
        for (const ArrayDecl &decl : program.arrays())
            solo.declareArray(decl);
        for (const auto &[name, value] : program.paramDefaults())
            solo.setParamDefault(name, value);
        solo.addNest(program.nests()[n]);
        for (const TuneCandidate &candidate : result.nests[n].candidates) {
            if (!candidate.measured || !candidate.valid)
                continue;
            int scaffold = t->beginProbe(tune, "tune.candidate_pipeline",
                                         Tracer::Kind::Scaffold);
            PipelineConfig forced = config.pipeline;
            forced.optimizer.forceUnroll = candidate.unroll;
            PipelineResult run = optimizeProgram(solo, machine, forced);
            t->end(scaffold);
            t->probe(tune, "sim.simulate", [&] {
                return simulateProgram(run.program, machine, {},
                                       config.seed)
                    .cycles;
            });
        }
    }
    return result;
}

} // namespace

// --- Service replay --------------------------------------------------------

ServiceReplay::ServiceReplay(std::size_t workers)
{
    for (std::size_t w = 0; w < workers; ++w)
        caches_.push_back(std::make_unique<ResultCache>(ResultCacheConfig{}));
}

std::string
ServiceReplay::process(Tracer *t, const std::string &frame,
                       std::size_t worker, TraceCounts &counts)
{
    ResultCache &cache = *caches_[worker % caches_.size()];
    RequestParse parsed = maybeSpan(t, "service.parse_request",
                                    [&] { return parseRequest(frame); });
    if (!parsed.ok())
        return errorResponse("", "", "error", parsed.error);
    const ServiceRequest &request = *parsed.request;
    const char *op = serviceOpName(request.op);
    try {
        Program program = maybeSpan(t, "parser.parse", [&] {
            return parseProgram(request.source, "<request>");
        });
        std::vector<std::string> problems = maybeSpan(
            t, "ir.validate", [&] { return validateProgram(program); });
        if (!problems.empty())
            return errorResponse(request.id, op, "error",
                                 "invalid program: " + problems.front());

        // As the server does: one request's nest fan-out stays serial.
        PipelineConfig config = request.config;
        config.threads = 1;
        config.optimizer.threads = 1;

        std::string key;
        if (t) {
            int key_span = t->begin("service.cache_key");
            key = computeCacheKey(op, program, request.machine, config,
                                  request.codegen, request.tune);
            t->end(key_span);
            t->probe(key_span, "ir.canonical",
                     [&] { return canonicalProgram(program).size(); });
        } else {
            key = computeCacheKey(op, program, request.machine, config,
                                  request.codegen, request.tune);
        }
        std::optional<std::string> hit = maybeSpan(
            t, "service.cache_get", [&] { return cache.get(key); });
        auto respond = [&](const std::string &result) {
            return maybeSpan(t, "service.respond", [&] {
                return okResponse(request.id, op, result);
            });
        };
        if (hit)
            return respond(*hit);

        std::string result_json;
        if (request.op == ServiceOp::Lint) {
            LintResult lint = maybeSpan(t, "analysis.lint", [&] {
                return lintProgram(program, request.machine,
                                   config.lintOptions);
            });
            counts.findings += static_cast<double>(lint.diagnostics.size());
            result_json = maybeSpan(t, "report.render",
                                    [&] { return lintResultJson(lint); });
        } else {
            PipelineResult result = tracedPipeline(
                t, program, request.machine, config, counts);
            if (request.op == ServiceOp::Codegen) {
                CodegenOptions emit = request.codegen;
                emit.variantLabel = "original";
                CodegenUnit original = maybeSpan(t, "codegen.emit", [&] {
                    return emitCProgram(program, emit);
                });
                emit.variantLabel = "transformed";
                CodegenUnit transformed = maybeSpan(t, "codegen.emit", [&] {
                    return emitCProgram(result.program, emit);
                });
                result_json = maybeSpan(t, "report.render", [&] {
                    return codegenResultJson(result, original, transformed,
                                             request.codegen.seed);
                });
            } else {
                result_json = maybeSpan(t, "report.render", [&] {
                    return pipelineResultJson(result);
                });
            }
        }
        maybeSpan(t, "service.cache_put", [&] {
            cache.put(key, result_json);
            return 0;
        });
        return respond(result_json);
    } catch (const FatalError &err) {
        return errorResponse(request.id, op, "error", err.what());
    } catch (const PanicError &err) {
        return errorResponse(request.id, op, "error", err.what());
    }
}

// --- Sweep job replay ------------------------------------------------------

JobReplay
replaySweepJob(Tracer *t, const SweepJob &job,
               const SweepManifest &manifest, TraceCounts &counts)
{
    const SweepPipeline &pipeline = manifest.pipelines.front();
    std::optional<MachineModel> machine = machinePreset(job.machine);
    if (!machine)
        fatal("unknown machine preset '", job.machine, "'");

    GeneratedScenario scenario = maybeSpan(
        t, "scenarios.generate", [&] { return generateScenario(job.spec); });
    Program program = maybeSpan(t, "parser.parse", [&] {
        return parseProgram(scenario.source, "scenario:" + scenario.name);
    });
    maybeSpan(t, "ir.validate",
              [&] { return validateProgram(program).size(); });
    std::string why;
    maybeSpan(t, "scenarios.truth", [&] {
        return verifyScenarioTruth(program, scenario.truth, &why);
    });

    // The per-job pipeline runSweep builds.
    PipelineConfig config;
    config.threads = 1;
    config.lint = pipeline.lint == "off"    ? LintMode::Off
                  : pipeline.lint == "strict" ? LintMode::Strict
                                              : LintMode::Warn;
    config.distribute = pipeline.distribute;
    config.interchange = pipeline.interchange;
    config.scalarReplace = pipeline.scalarReplace;
    config.prefetch = pipeline.prefetch;
    config.safety.oracle = manifest.oracle;
    config.safety.oracleTrials = 1;

    JobReplay out;
    PipelineResult optimized =
        tracedPipeline(t, program, *machine, config, counts);
    out.rollbacks = optimized.containedFaults();
    if (!optimized.outcomes.empty())
        out.modelPick = optimized.outcomes.front().decision.unroll.toString();

    TuneConfig tune;
    tune.pipeline = config;
    tune.pipeline.lint = LintMode::Off;
    tune.pipeline.safety.oracle = false;
    tune.measure = MeasureMode::Model;
    tune.neighborhood = 1;
    TuneResult tuned = tracedTune(t, program, *machine, tune, counts);
    if (!tuned.skipped && !tuned.nests.empty())
        out.tunerPick = tuned.nests.front().measuredBest.toString();
    return out;
}

// --- Summary ---------------------------------------------------------------

std::string
layerGroup(const std::string &span_name)
{
    if (span_name == "driver.oracle")
        return "oracle";
    return span_name.substr(0, span_name.find('.'));
}

TraceSummary
summarize(const Tracer &tracer)
{
    using Kind = Tracer::Kind;
    const std::vector<Tracer::Span> &spans = tracer.spans();
    std::vector<double> self(spans.size());
    std::vector<int> root_of(spans.size(), -1);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        self[i] = static_cast<double>(spans[i].endNs - spans[i].startNs);
        int parent = spans[i].parent;
        root_of[i] = parent < 0 ? static_cast<int>(i) : root_of[parent];
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Tracer::Span &span = spans[i];
        if (span.parent < 0)
            continue;
        double duration = static_cast<double>(span.endNs - span.startNs);
        if (span.kind == Kind::Real) {
            self[span.parent] -= duration;
            continue;
        }
        // Probes run after their parent, inside the operation: their
        // time leaves the root and (unless scaffold) is taken from the
        // parent they attribute.
        self[root_of[i]] -= duration;
        if (span.kind == Kind::Probe && span.parent != root_of[i])
            self[span.parent] -= duration;
    }

    TraceSummary summary;
    double layer_ns = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].kind == Kind::Scaffold)
            continue;
        if (spans[i].parent < 0) {
            summary.ops += 1;
            continue;
        }
        summary.selfUs[spans[i].name] += self[i];
        summary.totalUs[spans[i].name] +=
            static_cast<double>(spans[i].endNs - spans[i].startNs);
        summary.share[layerGroup(spans[i].name)] += self[i];
        layer_ns += self[i];
    }
    // Operation wall time = everything attributed inside it: layer
    // selves plus the root's own (glue) self.
    std::vector<double> op_wall_ns(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].kind != Kind::Scaffold)
            op_wall_ns[root_of[i]] += self[i];
    std::vector<std::pair<double, int>> op_wall; // (wall ns, root)
    double wall_ns = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent < 0) {
            wall_ns += op_wall_ns[i];
            op_wall.emplace_back(op_wall_ns[i], static_cast<int>(i));
        }
    }
    summary.wallMs = wall_ns / 1e6;
    summary.coverage = wall_ns > 0 ? layer_ns / wall_ns : 0;
    double ops = std::max(summary.ops, 1.0);
    for (auto &[name, ns] : summary.selfUs)
        ns = ns / 1e3 / ops;
    for (auto &[name, ns] : summary.totalUs)
        ns = ns / 1e3 / ops;
    for (auto &[group, ns] : summary.share)
        ns = wall_ns > 0 ? ns / wall_ns : 0;

    // The slowest 1% of operations: where their time goes.
    std::sort(op_wall.begin(), op_wall.end(),
              [](const auto &a, const auto &b) { return a.first > b.first; });
    std::size_t tail = std::max<std::size_t>(1, op_wall.size() / 100);
    std::vector<char> in_tail(spans.size(), 0);
    double tail_ns = 0;
    for (std::size_t k = 0; k < tail && k < op_wall.size(); ++k) {
        in_tail[op_wall[k].second] = 1;
        tail_ns += op_wall[k].first;
    }
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].kind != Kind::Scaffold && spans[i].parent >= 0 &&
            in_tail[root_of[i]])
            summary.tailShare[layerGroup(spans[i].name)] +=
                tail_ns > 0 ? self[i] / tail_ns : 0;
    return summary;
}

} // namespace perfbench
