#include "sim/cache.hh"

#include <algorithm>

#include "support/diagnostics.hh"

namespace ujam
{

CacheSim::CacheSim(std::int64_t cache_bytes, std::int64_t line_bytes,
                   std::int64_t associativity, std::int64_t element_bytes)
    : line_bytes_(line_bytes), element_bytes_(element_bytes),
      ways_(associativity)
{
    UJAM_ASSERT(line_bytes > 0 && (line_bytes & (line_bytes - 1)) == 0,
                "line size must be a power of two");
    UJAM_ASSERT(associativity >= 1, "associativity must be positive");
    UJAM_ASSERT(cache_bytes % (line_bytes * associativity) == 0,
                "capacity must be a whole number of sets");
    sets_ = cache_bytes / (line_bytes * associativity);
    UJAM_ASSERT(sets_ >= 1, "cache with no sets");
    tags_.resize(static_cast<std::size_t>(sets_ * ways_));
    if (ways_ > 1)
        last_use_.resize(tags_.size());
}

bool
CacheSim::access(std::int64_t element_addr, bool write)
{
    (void)write; // write-allocate: identical placement behaviour
    ++accesses_;
    ++clock_;

    std::int64_t byte_addr = element_addr * element_bytes_;
    std::int64_t line = byte_addr / line_bytes_;
    std::int64_t set = line % sets_;
    std::int64_t key = line / sets_ + 1;

    std::size_t first = static_cast<std::size_t>(set * ways_);
    std::int64_t *tags = &tags_[first];
    if (ways_ == 1) {
        if (tags[0] == key)
            return true;
        ++misses_;
        tags[0] = key;
        return false;
    }
    // LRU: fill the last empty way, else evict the first least
    // recently used one.
    std::uint64_t *last_use = &last_use_[first];
    std::int64_t victim = 0;
    for (std::int64_t w = 0; w < ways_; ++w) {
        if (tags[w] == key) {
            last_use[w] = clock_;
            return true;
        }
        if (tags[w] == 0) {
            victim = w;
        } else if (tags[victim] != 0 && last_use[w] < last_use[victim]) {
            victim = w;
        }
    }
    ++misses_;
    tags[victim] = key;
    last_use[victim] = clock_;
    return false;
}

void
CacheSim::flush()
{
    std::fill(tags_.begin(), tags_.end(), 0);
}

double
CacheSim::missRatio() const
{
    if (accesses_ == 0)
        return 0.0;
    return static_cast<double>(misses_) / static_cast<double>(accesses_);
}

} // namespace ujam
