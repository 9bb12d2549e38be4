/**
 * @file
 * The content-addressed result cache.
 *
 * The pipeline is a pure function of (parsed program IR, machine
 * model, pipeline configuration): the paper's tables -- like the
 * uniformly generated sets they are built from -- depend on nothing
 * else, and every stage on top is deterministic. That makes results
 * safe to memoize under a key that canonically serializes exactly
 * those three inputs (computeCacheKey); anything non-semantic --
 * request ids, whitespace, the worker thread count -- is excluded, so
 * equal work hits, and any semantic change (one optimizer knob, one
 * machine parameter, one statement) misses.
 *
 * Storage is two-tier: a bounded in-memory LRU in front of an
 * optional on-disk store, safe for concurrent use from any number of
 * threads *and processes* (every disk mutation is an atomic rename).
 *
 * The disk tier is one content-addressed directory: entry files live
 * under <dir>/<first two hex chars>/<key>, and one byte budget covers
 * the whole directory. Each put that lands a file sweeps the
 * directory against the budget; one mutex serializes a cache's
 * sweeps, and caches in other processes sweep without it, which is
 * safe because a sweep only deletes files.
 *
 * Reads are corruption-tolerant. Every entry is stored with a header
 * naming the payload's size and SHA-256; a load that fails any check
 * (missing/garbled header, short file, digest mismatch) is treated as
 * a miss, and the damaged file is moved into <dir>/quarantine/
 * (disk_quarantined metric) for postmortem instead of being served or
 * crashing the worker. The next store of the key simply writes a
 * fresh good entry.
 */

#ifndef UJAM_SERVICE_CACHE_HH
#define UJAM_SERVICE_CACHE_HH

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "codegen/c_emitter.hh"
#include "driver/driver.hh"
#include "service/metrics.hh"
#include "support/fault_injection.hh"
#include "tune/autotuner.hh"

namespace ujam
{

/**
 * @return The canonical text hashed into a cache key: a format
 * version header, an "op" tag, every semantic MachineModel,
 * PipelineConfig, CodegenOptions and TuneConfig field by name, and
 * the canonical program rendering. Exposed separately from the hash
 * so tests can assert *why* two keys differ. The version header is
 * bumped whenever a field joins the text or its rendering changes
 * (v2: the codegen emission fields; v4: the autotuner's search/budget
 * fields and the optimizer's forced unroll vector; v5: every digit of
 * non-integral constants), so persisted entries from an older schema
 * can never be returned for a newer request shape.
 */
std::string canonicalRequestText(const std::string &op,
                                 const Program &program,
                                 const MachineModel &machine,
                                 const PipelineConfig &config,
                                 const CodegenOptions &codegen = {},
                                 const TuneConfig &tune = {});

/** @return The SHA-256 hex cache key for a request. */
std::string computeCacheKey(const std::string &op, const Program &program,
                            const MachineModel &machine,
                            const PipelineConfig &config,
                            const CodegenOptions &codegen = {},
                            const TuneConfig &tune = {});

/** Where a cache probe was answered from. */
enum class CacheTier
{
    Miss,
    Memory,
    Disk
};

/** ResultCache construction knobs. */
struct ResultCacheConfig
{
    std::size_t memoryCapacity = 256; //!< in-memory LRU entries
    std::string diskDir;              //!< "" = memory only
    /** Total disk byte budget; 0 = unbounded. When the directory
     * overflows it, its oldest entries (disk hits refresh write
     * time, so oldest = least recently used) are evicted until it
     * fits. */
    std::uint64_t maxDiskBytes = 0;
    /** External disk counters (e.g. the server's shared-memory
     * metrics block); null = the cache owns private counters. */
    CacheCounters *counters = nullptr;
    /** Active process-level fault specs; only cache_corrupt is
     * consulted (flips a stored byte after the matching store). */
    std::vector<ProcessFaultSpec> faults;
};

/**
 * Two-tier LRU + persistent store mapping hex keys to result text.
 * See the file comment.
 */
class ResultCache
{
  public:
    explicit ResultCache(ResultCacheConfig config);

    /** Convenience form of the config constructor. */
    explicit ResultCache(std::size_t memory_capacity,
                         std::string disk_dir = "",
                         std::uint64_t max_disk_bytes = 0);

    /**
     * Look up a key.
     *
     * A disk hit is digest-verified and promoted into the memory
     * tier; a corrupt disk entry is quarantined and reported as a
     * miss.
     *
     * @param key  The hex key.
     * @param tier Set to where the value came from (or Miss).
     * @return The stored value, or nothing.
     */
    std::optional<std::string> get(const std::string &key,
                                   CacheTier *tier = nullptr);

    /** Insert (or refresh) a key in both tiers. */
    void put(const std::string &key, const std::string &value);

    /** @return Current in-memory entry count. */
    std::size_t memoryEntries() const;

    /** @return Configured in-memory capacity. */
    std::size_t memoryCapacity() const { return capacity_; }

    /** @return The persistence directory ("" = memory only). */
    const std::string &diskDir() const { return diskDir_; }

    /** @return The configured disk byte budget (0 = unbounded). */
    std::uint64_t maxDiskBytes() const { return maxDiskBytes_; }

    /** @return The entry path for a key (for tests that damage it). */
    std::string diskPath(const std::string &key) const;

    /**
     * @return The on-disk size of an entry holding @p payload_bytes,
     * including the integrity header. Byte budgets count this, not
     * the bare payload -- size budgets from entry counts with it.
     */
    static std::uint64_t diskEntryBytes(std::uint64_t payload_bytes);

    /** @return Disk entries evicted by the byte budget. */
    std::uint64_t
    diskEvictions() const
    {
        return counters_->diskEvictions.get();
    }

    /** @return Corrupt disk entries quarantined. */
    std::uint64_t
    diskQuarantined() const
    {
        return counters_->diskQuarantined.get();
    }

  private:
    void insertLocked(const std::string &key, std::string value);
    /** Move a damaged entry into <dir>/quarantine/. */
    void quarantine(const std::string &key);
    void enforceDiskBudget();

    std::size_t capacity_;
    std::string diskDir_;
    std::uint64_t maxDiskBytes_;
    CacheCounters *counters_; //!< external or &ownedCounters_
    std::unique_ptr<CacheCounters> ownedCounters_;
    std::vector<ProcessFaultSpec> corruptFaults_;
    std::atomic<std::uint64_t> storeSerial_{0};
    std::mutex evictMutex_; //!< serializes budget sweeps

    mutable std::mutex mutex_;
    /** Most recent at the front. */
    std::list<std::pair<std::string, std::string>> lru_;
    std::unordered_map<
        std::string,
        std::list<std::pair<std::string, std::string>>::iterator>
        index_;
};

} // namespace ujam

#endif // UJAM_SERVICE_CACHE_HH
