#include "service/metrics.hh"

#include "support/json.hh"

namespace ujam
{

std::uint64_t
LatencyHistogram::bucketBound(std::size_t i)
{
    // 1, 4, 16, ... 4^12 (~67s); the last bucket is the overflow.
    std::uint64_t bound = 1;
    for (std::size_t k = 0; k < i; ++k)
        bound *= 4;
    return bound;
}

void
LatencyHistogram::record(std::uint64_t micros)
{
    std::size_t bucket = 0;
    std::uint64_t bound = 1;
    while (bucket + 1 < kBuckets && micros > bound) {
        bound *= 4;
        ++bucket;
    }
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sumMicros_.fetch_add(micros, std::memory_order_relaxed);
}

namespace
{

void
histogramJson(JsonWriter &json, const char *name,
              const LatencyHistogram &hist)
{
    json.key(name).beginObject();
    json.field("count", hist.count());
    json.field("sum_us", hist.sumMicros());
    json.key("buckets").beginArray();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
        cumulative += hist.bucketCount(i);
        json.beginObject();
        if (i + 1 < LatencyHistogram::kBuckets) {
            json.field("le_us", LatencyHistogram::bucketBound(i));
        } else {
            json.field("le_us", "inf");
        }
        json.field("count", cumulative);
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

} // namespace

std::string
metricsJson(const ServiceMetrics &metrics, const CacheStats &cache,
            const SupervisorStats *supervisor)
{
    JsonWriter json;
    json.beginObject();

    json.key("requests").beginObject();
    json.field("total", metrics.requestsTotal.get());
    json.field("ok", metrics.requestsOk.get());
    json.field("errors", metrics.requestsError.get());
    json.field("malformed", metrics.requestsMalformed.get());
    json.field("bad_op", metrics.requestsBadOp.get());
    json.field("bad_field", metrics.requestsBadField.get());
    json.field("timeouts", metrics.requestsTimeout.get());
    json.field("degraded", metrics.requestsDegraded.get());
    json.key("by_op").beginObject();
    json.field("optimize", metrics.opOptimize.get());
    json.field("lint", metrics.opLint.get());
    json.field("codegen", metrics.opCodegen.get());
    json.field("tune", metrics.opTune.get());
    json.field("metrics", metrics.opMetrics.get());
    json.field("ping", metrics.opPing.get());
    json.field("shutdown", metrics.opShutdown.get());
    json.endObject();
    json.endObject();

    const CacheCounters &disk = metrics.cacheCounters;
    json.key("cache").beginObject();
    json.field("memory_hits", metrics.cacheMemoryHits.get());
    json.field("disk_hits", metrics.cacheDiskHits.get());
    json.field("misses", metrics.cacheMisses.get());
    json.field("stores", metrics.cacheStores.get());
    json.field("bypassed", metrics.cacheBypassed.get());
    json.field("memory_entries", cache.memoryEntries);
    json.field("memory_capacity", cache.memoryCapacity);
    json.field("disk_stores", disk.diskStores.get());
    json.field("disk_evictions", disk.diskEvictions.get());
    json.field("disk_quarantined", disk.diskQuarantined.get());
    json.endObject();

    json.key("pipeline").beginObject();
    json.field("nests_optimized", metrics.nestsOptimized.get());
    json.field("lint_rejections", metrics.lintRejections.get());
    json.field("contained_faults", metrics.containedFaults.get());
    json.endObject();

    json.key("tune").beginObject();
    json.field("tune_requests", metrics.tuneRequests.get());
    json.field("tune_candidates_measured",
               metrics.tuneCandidatesMeasured.get());
    json.field("tune_cache_hits", metrics.tuneCacheHits.get());
    json.endObject();

    json.key("connections").beginObject();
    json.field("idle_closed", metrics.connectionsIdleClosed.get());
    json.endObject();

    if (supervisor) {
        json.key("supervisor").beginObject();
        json.field("workers_configured",
                   supervisor->workersConfigured);
        json.field("workers_alive", supervisor->workersAlive);
        json.field("restarts_total", supervisor->restartsTotal);
        json.field("crashes_total", supervisor->crashesTotal);
        json.field("degraded", supervisor->degraded);
        json.field("degraded_transitions",
                   supervisor->degradedTransitions);
        json.field("forced_kills", supervisor->forcedKills);
        json.key("workers").beginArray();
        for (const WorkerStats &worker : supervisor->workers) {
            json.beginObject();
            json.field("restarts", worker.restarts);
            json.field("crashes", worker.crashes);
            json.field("alive", worker.alive);
            json.field("last_exit_code", worker.lastExitCode);
            json.field("last_signal", worker.lastSignal);
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }

    json.key("latency_us").beginObject();
    histogramJson(json, "parse", metrics.parseLatency);
    histogramJson(json, "optimize", metrics.optimizeLatency);
    histogramJson(json, "render", metrics.renderLatency);
    histogramJson(json, "cache_probe", metrics.cacheProbeLatency);
    histogramJson(json, "total", metrics.totalLatency);
    json.endObject();

    json.endObject();
    return json.str();
}

} // namespace ujam
