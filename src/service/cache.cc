#include "service/cache.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/dataflow.hh"
#include "ir/fingerprint.hh"
#include "support/sha256.hh"

namespace ujam
{

namespace
{

/** Shortest round-trip decimal rendering (locale-independent). */
std::string
num(double v)
{
    char buf[40];
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    if (ec != std::errc())
        return "?";
    return std::string(buf, end);
}

void
renderMachine(std::ostringstream &os, const MachineModel &machine)
{
    os << "machine.name = " << machine.name << "\n"
       << "machine.memOpsPerCycle = " << num(machine.memOpsPerCycle)
       << "\n"
       << "machine.flopsPerCycle = " << num(machine.flopsPerCycle)
       << "\n"
       << "machine.fpRegisters = " << machine.fpRegisters << "\n"
       << "machine.cacheBytes = " << machine.cacheBytes << "\n"
       << "machine.lineBytes = " << machine.lineBytes << "\n"
       << "machine.associativity = " << machine.associativity << "\n"
       << "machine.elementBytes = " << machine.elementBytes << "\n"
       << "machine.cacheHitCycles = " << num(machine.cacheHitCycles)
       << "\n"
       << "machine.missPenaltyCycles = "
       << num(machine.missPenaltyCycles) << "\n"
       << "machine.l2Bytes = " << machine.l2Bytes << "\n"
       << "machine.l2LineBytes = " << machine.l2LineBytes << "\n"
       << "machine.l2Associativity = " << machine.l2Associativity
       << "\n"
       << "machine.l2HitCycles = " << num(machine.l2HitCycles) << "\n"
       << "machine.prefetchPerCycle = " << num(machine.prefetchPerCycle)
       << "\n"
       << "machine.issueWidth = " << machine.issueWidth << "\n"
       << "machine.memPorts = " << machine.memPorts << "\n"
       << "machine.fpUnits = " << machine.fpUnits << "\n"
       << "machine.loadLatency = " << machine.loadLatency << "\n"
       << "machine.fpLatency = " << machine.fpLatency << "\n";
}

void
renderConfig(std::ostringstream &os, const PipelineConfig &config)
{
    // Every semantic field by name. PipelineConfig::threads and
    // OptimizerConfig::threads are deliberately absent: the fan-outs
    // are bit-identical at every width, so thread counts must map to
    // the same key (verified by ServiceCache.ThreadCountExcluded).
    const OptimizerConfig &opt = config.optimizer;
    os << "optimizer.maxUnroll = " << opt.maxUnroll << "\n"
       << "optimizer.maxLoops = " << opt.maxLoops << "\n"
       << "optimizer.useCacheModel = " << opt.useCacheModel << "\n"
       << "optimizer.limitRegisters = " << opt.limitRegisters << "\n"
       << "optimizer.locality.cacheLineElems = "
       << opt.locality.cacheLineElems << "\n"
       << "optimizer.locality.localizedTrip = "
       << num(opt.locality.localizedTrip) << "\n";

    os << "pipeline.fuse = " << config.fuse << "\n"
       << "pipeline.normalize = " << config.normalize << "\n"
       << "pipeline.distribute = " << config.distribute << "\n"
       << "pipeline.interchange = " << config.interchange << "\n"
       << "pipeline.scalarReplace = " << config.scalarReplace << "\n"
       << "pipeline.prefetch = " << config.prefetch << "\n"
       << "pipeline.prefetchConfig.distanceIters = "
       << config.prefetchConfig.distanceIters << "\n";

    const SafetyConfig &safety = config.safety;
    os << "safety.validate = " << safety.validate << "\n"
       << "safety.oracle = " << safety.oracle << "\n"
       << "safety.oracleTrials = " << safety.oracleTrials << "\n"
       << "safety.tolerance = " << num(safety.tolerance) << "\n"
       << "safety.oracleSeed = " << safety.oracleSeed << "\n";
    os << "safety.oracleParams =";
    for (const auto &[name, value] : safety.oracleParams)
        os << " " << name << ":" << value;
    os << "\n";
    os << "safety.faults =";
    for (const FaultSpec &spec : safety.faults)
        os << " " << spec.toString();
    os << "\n";

    os << "lint.mode = " << lintModeName(config.lint) << "\n"
       << "lint.maxUnroll = " << config.lintOptions.maxUnroll << "\n"
       << "lint.minSeverity = "
       << lintSeverityName(config.lintOptions.minSeverity) << "\n";

    // The dataflow engine's version: lint findings and the pruned
    // dependence graph are functions of the abstract domains, so a
    // sharper analysis release must miss on every stale entry rather
    // than serve findings the current engine would not produce.
    os << "analysis.version = " << kAnalysisVersion << "\n"
       << "optimizer.depRangePrune = " << opt.depRangePrune << "\n";

    // v4: a forced unroll vector replaces the Eq.-1 search entirely,
    // so it is as semantic as any other optimizer knob.
    os << "optimizer.forceUnroll =";
    if (opt.forceUnroll) {
        for (std::int64_t amount : *opt.forceUnroll)
            os << " " << amount;
    }
    os << "\n";
}

} // namespace

std::string
canonicalRequestText(const std::string &op, const Program &program,
                     const MachineModel &machine,
                     const PipelineConfig &config,
                     const CodegenOptions &codegen,
                     const TuneConfig &tune)
{
    std::ostringstream os;
    // v7: the program text keeps the sign of a zero constant (v6
    // printed -0.0 as 0.0, so the two programs shared a key and one
    // was answered with the other's result) and prints integral
    // constants past 2^63 in full.
    // v6: codegen comments print each statement with the IR printer
    // (every digit of a constant, integral ones as N.0), and the lint
    // halo line is gone with its knob. v5 kept every digit of a
    // non-integral constant in the program text (v4 printed six
    // significant digits, so programs that differed past them shared
    // a key and one could be answered with the other's result). v4
    // added the autotuner's search/budget fields and the optimizer's
    // forced unroll vector, v3 the symbolic-analysis fields. The
    // header is part of the hashed bytes, so a version bump
    // invalidates every persisted v1-v6 entry wholesale.
    os << "ujam-serve-cache-v7\n";
    os << "op = " << op << "\n";
    renderMachine(os, machine);
    renderConfig(os, config);
    // variantLabel is presentation, not semantics; it stays out.
    os << "codegen.seed = " << codegen.seed << "\n"
       << "codegen.emitMain = " << codegen.emitMain << "\n";
    os << "codegen.paramOverrides =";
    for (const auto &[name, value] : codegen.paramOverrides)
        os << " " << name << ":" << value;
    os << "\n";
    // The tuner's search and budget knobs change what a tune response
    // contains (candidate set, measurement depth), so they are part
    // of the key; its pipeline member is the PipelineConfig already
    // rendered above and stays out.
    os << "tune.measure = " << measureModeName(tune.measure) << "\n"
       << "tune.budgetMs = " << tune.budgetMs << "\n"
       << "tune.neighborhood = " << tune.neighborhood << "\n"
       << "tune.repeats = " << tune.repeats << "\n"
       << "tune.warmup = " << tune.warmup << "\n"
       << "tune.seed = " << tune.seed << "\n"
       << "tune.cflags = " << tune.cflags << "\n"
       << "tune.noiseMargin = " << num(tune.noiseMargin) << "\n";
    os << "program:\n" << canonicalProgram(program);
    return os.str();
}

std::string
computeCacheKey(const std::string &op, const Program &program,
                const MachineModel &machine,
                const PipelineConfig &config,
                const CodegenOptions &codegen, const TuneConfig &tune)
{
    return sha256Hex(canonicalRequestText(op, program, machine, config,
                                          codegen, tune));
}

// --- ResultCache -----------------------------------------------------------

namespace
{

/** Entry-file magic; bumped if the on-disk entry layout changes. */
constexpr const char *kEntryMagic = "ujam-entry-v1";

/**
 * @return The header stored ahead of a payload: magic, the payload's
 * SHA-256, and its byte length, newline-terminated. Everything the
 * read path needs to prove the payload is exactly what was written.
 */
std::string
entryHeader(const std::string &payload)
{
    return std::string(kEntryMagic) + " " + sha256Hex(payload) + " " +
           std::to_string(payload.size()) + "\n";
}

/**
 * Parse + verify a raw entry file.
 *
 * @return The payload, or nothing when the file is truncated,
 * bit-flipped, headerless or otherwise not provably intact.
 */
std::optional<std::string>
verifyEntry(const std::string &raw)
{
    std::size_t newline = raw.find('\n');
    if (newline == std::string::npos)
        return std::nullopt;
    std::istringstream header(raw.substr(0, newline));
    std::string magic, digest;
    std::uint64_t size = 0;
    if (!(header >> magic >> digest >> size) || magic != kEntryMagic)
        return std::nullopt;
    std::string payload = raw.substr(newline + 1);
    if (payload.size() != size)
        return std::nullopt;
    if (sha256Hex(payload) != digest)
        return std::nullopt;
    return payload;
}

} // namespace

ResultCache::ResultCache(ResultCacheConfig config)
    : capacity_(config.memoryCapacity == 0 ? 1
                                           : config.memoryCapacity),
      diskDir_(std::move(config.diskDir)),
      maxDiskBytes_(config.maxDiskBytes), counters_(config.counters)
{
    if (!counters_) {
        ownedCounters_ = std::make_unique<CacheCounters>();
        counters_ = ownedCounters_.get();
    }
    for (const ProcessFaultSpec &spec : config.faults) {
        if (spec.kind == ProcessFaultKind::CacheCorrupt)
            corruptFaults_.push_back(spec);
    }
}

ResultCache::ResultCache(std::size_t memory_capacity,
                         std::string disk_dir,
                         std::uint64_t max_disk_bytes)
    : ResultCache([&] {
          ResultCacheConfig config;
          config.memoryCapacity = memory_capacity;
          config.diskDir = std::move(disk_dir);
          config.maxDiskBytes = max_disk_bytes;
          return config;
      }())
{}

std::uint64_t
ResultCache::diskEntryBytes(std::uint64_t payload_bytes)
{
    // Mirrors entryHeader(): magic, space, 64 hex digest chars,
    // space, decimal length, newline, then the payload itself.
    return std::string(kEntryMagic).size() + 1 + 64 + 1 +
           std::to_string(payload_bytes).size() + 1 + payload_bytes;
}

std::string
ResultCache::diskPath(const std::string &key) const
{
    // Content-addressed layout: <dir>/<first two hex chars>/<key>.
    // The two-hex fan-out keeps directories small under sustained
    // traffic.
    return diskDir_ + "/" + key.substr(0, 2) + "/" + key;
}

void
ResultCache::insertLocked(const std::string &key, std::string value)
{
    auto found = index_.find(key);
    if (found != index_.end()) {
        lru_.splice(lru_.begin(), lru_, found->second);
        found->second->second = std::move(value);
        return;
    }
    lru_.emplace_front(key, std::move(value));
    index_[key] = lru_.begin();
    while (lru_.size() > capacity_) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
    }
}

void
ResultCache::quarantine(const std::string &key)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::path held = fs::path(diskDir_) / "quarantine" / key;
    fs::create_directories(held.parent_path(), ec);
    fs::rename(diskPath(key), held, ec);
    if (ec) {
        // Another worker won the rename race, or the filesystem is
        // refusing; removal is an acceptable fallback -- the one
        // invariant is that a damaged entry never stays servable.
        fs::remove(diskPath(key), ec);
    }
    counters_->diskQuarantined.add();
}

std::optional<std::string>
ResultCache::get(const std::string &key, CacheTier *tier)
{
    if (tier)
        *tier = CacheTier::Miss;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto found = index_.find(key);
        if (found != index_.end()) {
            lru_.splice(lru_.begin(), lru_, found->second);
            if (tier)
                *tier = CacheTier::Memory;
            return found->second->second;
        }
    }
    if (diskDir_.empty())
        return std::nullopt;

    std::ifstream in(diskPath(key), std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream text;
    text << in.rdbuf();
    if (!in.good() && !in.eof())
        return std::nullopt;

    // Never trust stored bytes: a torn write, a truncated file or a
    // flipped bit must come back as a miss, not as garbage served to
    // a client or a crash inside the JSON splice.
    std::optional<std::string> payload = verifyEntry(text.str());
    if (!payload) {
        quarantine(key);
        return std::nullopt;
    }
    std::string value = std::move(*payload);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        insertLocked(key, value);
    }
    if (maxDiskBytes_ > 0) {
        // A disk hit refreshes the entry's write time, so the byte
        // budget evicts least-recently-*used* entries, not merely
        // oldest-written ones.
        std::error_code ec;
        std::filesystem::last_write_time(
            diskPath(key),
            std::filesystem::file_time_type::clock::now(), ec);
    }
    if (tier)
        *tier = CacheTier::Disk;
    return value;
}

void
ResultCache::put(const std::string &key, const std::string &value)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        insertLocked(key, value);
    }
    if (diskDir_.empty())
        return;

    namespace fs = std::filesystem;
    std::error_code ec;
    std::string path = diskPath(key);
    fs::create_directories(fs::path(path).parent_path(), ec);
    if (ec)
        return; // persistence is best-effort; memory tier still serves

    // Atomic publish: write a unique temp file, then rename into
    // place. Readers either see the old content or the new, never a
    // torn write; concurrent writers of the same key write identical
    // bytes (content addressing), so last-rename-wins is benign.
    static std::atomic<std::uint64_t> temp_serial{0};
    std::string temp = diskDir_ + "/.tmp-" +
                       std::to_string(::getpid()) + "-" +
                       std::to_string(temp_serial.fetch_add(1));
    {
        std::ofstream out(temp, std::ios::binary | std::ios::trunc);
        if (!out) {
            return;
        }
        std::string header = entryHeader(value);
        out.write(header.data(),
                  static_cast<std::streamsize>(header.size()));
        out.write(value.data(),
                  static_cast<std::streamsize>(value.size()));
        if (!out.good()) {
            out.close();
            fs::remove(temp, ec);
            return;
        }
    }
    fs::rename(temp, path, ec);
    if (ec) {
        fs::remove(temp, ec);
        return;
    }
    counters_->diskStores.add();

    std::uint64_t serial =
        storeSerial_.fetch_add(1, std::memory_order_relaxed) + 1;
    for (const ProcessFaultSpec &spec : corruptFaults_) {
        if (!spec.matches(serial))
            continue;
        // Deterministic bit rot: damage one payload byte in place so
        // the *read* path -- the code under test -- must detect it.
        std::fstream file(path, std::ios::binary | std::ios::in |
                                    std::ios::out);
        if (file) {
            file.seekp(static_cast<std::streamoff>(
                entryHeader(value).size() + value.size() / 2));
            char byte = static_cast<char>(value[value.size() / 2] ^
                                          0xFF);
            file.write(&byte, 1);
        }
        break;
    }
    enforceDiskBudget();
}

void
ResultCache::enforceDiskBudget()
{
    if (maxDiskBytes_ == 0 || diskDir_.empty())
        return;
    namespace fs = std::filesystem;
    // One sweep at a time; concurrent inserts wait rather than race
    // to delete the same files.
    std::lock_guard<std::mutex> sweep(evictMutex_);

    struct DiskEntry
    {
        fs::path path;
        std::uint64_t size;
        fs::file_time_type mtime;
    };
    std::vector<DiskEntry> entries;
    std::uint64_t total = 0;
    std::error_code ec;
    for (auto dir = fs::directory_iterator(diskDir_, ec);
         !ec && dir != fs::directory_iterator(); dir.increment(ec)) {
        // Keys live in two-hex fan-out subdirectories; quarantined
        // entries and in-flight .tmp-* writes are never touched.
        if (!dir->is_directory(ec))
            continue;
        if (dir->path().filename() == "quarantine")
            continue;
        std::error_code sub_ec;
        for (auto file = fs::directory_iterator(dir->path(), sub_ec);
             !sub_ec && file != fs::directory_iterator();
             file.increment(sub_ec)) {
            std::error_code stat_ec;
            if (!file->is_regular_file(stat_ec))
                continue;
            std::uint64_t size = file->file_size(stat_ec);
            if (stat_ec)
                continue;
            fs::file_time_type mtime =
                file->last_write_time(stat_ec);
            if (stat_ec)
                continue;
            entries.push_back({file->path(), size, mtime});
            total += size;
        }
    }
    if (total <= maxDiskBytes_)
        return;

    std::sort(entries.begin(), entries.end(),
              [](const DiskEntry &a, const DiskEntry &b) {
                  return a.mtime < b.mtime;
              });
    for (const DiskEntry &entry : entries) {
        if (total <= maxDiskBytes_)
            break;
        std::error_code remove_ec;
        if (fs::remove(entry.path, remove_ec) && !remove_ec) {
            total -= entry.size;
            counters_->diskEvictions.add();
        }
    }
}

std::size_t
ResultCache::memoryEntries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lru_.size();
}

} // namespace ujam
