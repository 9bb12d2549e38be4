/**
 * @file
 * The traced pass: in-process replay of a workload's exact inputs with
 * spans around calls into each module's public functions.
 *
 * Spans are recorded from outside the program, so a composite call
 * (optimizeProgram, chooseUnrollAmounts, buildNestTables, tuneProgram)
 * cannot be split from inside. Its children are *probes*: after the
 * composite returns, the replay calls the public functions it is made
 * of, in pipeline order, on the same inputs, each under its own span
 * whose parent is the composite (probes never nest in time). A
 * composite's self time is its duration minus its children's
 * durations, so the probed work moves out of the composite and into
 * the layer that does it.
 *
 * Probe time is attribution, not request work: the traced wall time of
 * an operation is its root span minus every probe run inside it.
 * Summed self times of all spans then add up to that wall time, and
 * the share not covered by a layer is the replay's own glue.
 * Scaffold spans (probe set-up whose cost is not attributed, such as
 * re-running a tuner candidate's pipeline to simulate its program)
 * count as probe time but are not subtracted from their parent.
 */

#ifndef UJAM_PERFBENCH_TRACED_HH
#define UJAM_PERFBENCH_TRACED_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "inputs.hh"
#include "service/cache.hh"
#include "service/server.hh"

namespace perfbench
{

/** In-memory span recorder; written out once, at the end. */
class Tracer
{
  public:
    enum class Kind : std::uint8_t
    {
        Real,    //!< part of the replayed operation
        Probe,   //!< attribution call under a composite span
        Scaffold //!< unattributed probe set-up
    };

    struct Span
    {
        const char *name = "";
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        std::int32_t parent = -1;
        std::uint32_t op = 0;
        Kind kind = Kind::Real;
    };

    /** Start operation `op`: opens its root span. */
    void beginOp(std::uint32_t op, const char *name);
    void endOp();

    /** Open a span under the innermost open span. */
    int begin(const char *name);
    /** Open a probe (or scaffold) span under an explicit parent. */
    int beginProbe(int parent, const char *name, Kind kind = Kind::Probe);
    void end(int span);

    /** Run `body` under a real span. */
    template <typename Body>
    auto
    span(const char *name, Body &&body)
    {
        Scope scope(*this, begin(name));
        return body();
    }

    /** Run `body` under a probe span attributed to `parent`. */
    template <typename Body>
    auto
    probe(int parent, const char *name, Body &&body)
    {
        Scope scope(*this, beginProbe(parent, name));
        return body();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Write one JSON object per span (NDJSON). */
    bool write(const std::string &path) const;

  private:
    struct Scope
    {
        Tracer &tracer;
        int index;
        Scope(Tracer &t, int i) : tracer(t), index(i) {}
        ~Scope() { tracer.end(index); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
    };

    static std::int64_t now();

    std::vector<Span> spans_;
    std::vector<int> open_;
    std::uint32_t op_ = 0;
};

/** Counts recorded at the same boundaries as the spans. */
struct TraceCounts
{
    double depEdges = 0;     //!< dependence edges analyzed
    double searchedPoints = 0; //!< unroll vectors the search evaluated
    double findings = 0;     //!< lint findings
    double tuneCandidates = 0; //!< tuner candidates per tune
    double stagesRun = 0;    //!< guarded pipeline stages
    double contained = 0;    //!< contained faults (rollbacks)
};

/**
 * Replays service frames along UjamServer's request path -- parse,
 * validate, cache key, cache probe, pipeline, render, cache store --
 * with one in-memory ResultCache per worker, as the supervised service
 * has.
 */
class ServiceReplay
{
  public:
    explicit ServiceReplay(std::size_t workers);

    /** @return The response frame for `frame` on `worker`. */
    std::string process(Tracer *tracer, const std::string &frame,
                        std::size_t worker, TraceCounts &counts);

  private:
    std::vector<std::unique_ptr<ujam::ResultCache>> caches_;
};

/** One sweep_verify job replayed along runSweep's per-job path. */
struct JobReplay
{
    std::string modelPick;
    std::string tunerPick;
    std::size_t rollbacks = 0;
};

JobReplay replaySweepJob(Tracer *tracer, const SweepJob &job,
                         const ujam::SweepManifest &manifest,
                         TraceCounts &counts);

/** Per-op metric table of a finished trace. */
struct TraceSummary
{
    double ops = 0;
    double wallMs = 0;     //!< summed op wall time, probes excluded
    double coverage = 0;   //!< layer self time / wall time
    /** Mean self microseconds per op, by span name. */
    std::map<std::string, double> selfUs;
    /** Mean inclusive microseconds per op, by span name. */
    std::map<std::string, double> totalUs;
    /** Self-time share of the wall time, by layer group. */
    std::map<std::string, double> share;
    /** Self-time share by layer group within the slowest 1% of
     * operations (at least one). */
    std::map<std::string, double> tailShare;
};

/** @return The span's layer group ("driver.oracle" is "oracle"). */
std::string layerGroup(const std::string &span_name);

TraceSummary summarize(const Tracer &tracer);

} // namespace perfbench

#endif // UJAM_PERFBENCH_TRACED_HH
