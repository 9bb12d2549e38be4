/**
 * @file
 * Service observability: atomic counters and fixed-bucket latency
 * histograms.
 *
 * Every mutation is a relaxed atomic increment, so recording from
 * any number of worker threads is wait-free and never perturbs
 * request latency. metricsJson() renders a stable schema (fixed key
 * order, cumulative "le" buckets) so dashboards and tests can diff
 * two snapshots mechanically. Counter values are exact; a snapshot
 * taken while workers are active is a consistent-enough point-in-time
 * read (each counter individually correct, no torn values).
 */

#ifndef UJAM_SERVICE_METRICS_HH
#define UJAM_SERVICE_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ujam
{

/**
 * Everything in this header is built from relaxed atomics and holds
 * no pointers, so a ServiceMetrics placed in a MAP_SHARED mapping
 * before fork() aggregates across worker processes for free: every
 * worker increments the same cache lines, and the `metrics` op
 * renders service-wide totals no matter which worker answers it.
 */

/**
 * A fixed-bucket latency histogram over microseconds.
 *
 * Bucket upper bounds are powers of four starting at 1us (1, 4, 16,
 * ..., ~67s) plus a final overflow bucket, covering everything from a
 * cache hit to a pathological optimize with 13 buckets of ~2x worst
 * case resolution per decade.
 */
class LatencyHistogram
{
  public:
    static constexpr std::size_t kBuckets = 14;

    /** @return The inclusive upper bound of bucket i in microseconds
     * (the last bucket is unbounded). */
    static std::uint64_t bucketBound(std::size_t i);

    /** Record one observation of micros microseconds. */
    void record(std::uint64_t micros);

    std::uint64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    sumMicros() const
    {
        return sumMicros_.load(std::memory_order_relaxed);
    }

    /** @return The raw (non-cumulative) count of bucket i. */
    std::uint64_t
    bucketCount(std::size_t i) const
    {
        return buckets_[i].load(std::memory_order_relaxed);
    }

  private:
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sumMicros_{0};
};

/** One relaxed atomic counter. */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    get() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Disk-tier counters (fixed-size: shareable). */
struct CacheCounters
{
    Counter diskStores;
    Counter diskEvictions;   //!< removed by the byte budget
    Counter diskQuarantined; //!< corrupt entries moved aside
};

/** Everything ujam-serve counts. */
struct ServiceMetrics
{
    // --- requests, by outcome ---
    Counter requestsTotal;
    Counter requestsOk;
    Counter requestsError;     //!< all rejected frames (sum of kinds)
    Counter requestsMalformed; //!< not JSON / not an object / no op
    Counter requestsBadOp;     //!< well-formed frame, unknown op
    Counter requestsBadField;  //!< known op, bad field/option value
    Counter requestsTimeout;   //!< deadline expired
    Counter requestsDegraded;  //!< rejected in cache-only mode

    // --- requests, by operation ---
    Counter opOptimize;
    Counter opLint;
    Counter opCodegen;
    Counter opTune;
    Counter opMetrics;
    Counter opPing;
    Counter opShutdown;

    // --- autotuning ---
    Counter tuneRequests;           //!< tune ops accepted for work
    Counter tuneCandidatesMeasured; //!< candidates actually measured
    Counter tuneCacheHits;          //!< tune ops answered from cache

    // --- result cache ---
    Counter cacheMemoryHits;
    Counter cacheDiskHits;
    Counter cacheMisses;
    Counter cacheStores;
    Counter cacheBypassed; //!< requests sent with "no_cache"
    /** Disk-tier counters, written by the ResultCache. */
    CacheCounters cacheCounters;

    // --- connections ---
    Counter connectionsIdleClosed; //!< closed by the idle timeout

    // --- pipeline outcomes ---
    Counter nestsOptimized;
    Counter lintRejections;  //!< nests skipped by strict lint
    Counter containedFaults; //!< safety-net rollbacks across requests

    // --- per-stage latency ---
    LatencyHistogram parseLatency;    //!< DSL parse + validate
    LatencyHistogram optimizeLatency; //!< optimizeProgram / lintProgram
    LatencyHistogram renderLatency;   //!< result JSON assembly
    LatencyHistogram totalLatency;    //!< request receipt to response
    LatencyHistogram cacheProbeLatency; //!< key derivation + lookup
};

/** Cache gauges passed into metricsJson by the cache's owner. */
struct CacheStats
{
    std::uint64_t memoryEntries = 0;
    std::uint64_t memoryCapacity = 0;
};

/** One worker's supervision history, for the metrics document. */
struct WorkerStats
{
    std::uint64_t restarts = 0;
    std::uint64_t crashes = 0;
    bool alive = false;
    std::int64_t lastExitCode = 0; //!< 0 when none yet
    std::int64_t lastSignal = 0;   //!< 0 when none yet
};

/** Supervision-tree gauges, when a supervisor is running. */
struct SupervisorStats
{
    std::uint64_t workersConfigured = 0;
    std::uint64_t workersAlive = 0;
    std::uint64_t restartsTotal = 0;
    std::uint64_t crashesTotal = 0;
    bool degraded = false;
    std::uint64_t degradedTransitions = 0;
    std::uint64_t forcedKills = 0;
    std::vector<WorkerStats> workers;
};

/**
 * @return The metrics as a stable one-line JSON document. Gauge
 * fields the cache owns (entry counts) are passed in by the caller;
 * the disk counters render from metrics.cacheCounters. A null
 * supervisor omits the "supervisor" section (batch mode).
 */
std::string metricsJson(const ServiceMetrics &metrics,
                        const CacheStats &cache,
                        const SupervisorStats *supervisor = nullptr);

} // namespace ujam

#endif // UJAM_SERVICE_METRICS_HH
