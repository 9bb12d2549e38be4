#include "sim/cache.hh"

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
    lines_.resize(static_cast<std::size_t>(sets_ * ways_));
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
    std::int64_t tag = line / sets_;

    Way *begin = &lines_[static_cast<std::size_t>(set * ways_)];
    Way *victim = begin;
    for (std::int64_t w = 0; w < ways_; ++w) {
        Way &way = begin[w];
        if (way.valid && way.tag == tag) {
            way.lastUse = clock_;
            return true;
        }
        if (!way.valid) {
            victim = &way;
        } else if (victim->valid && way.lastUse < victim->lastUse) {
            victim = &way;
        }
    }
    ++misses_;
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = clock_;
    return false;
}

void
CacheSim::flush()
{
    for (Way &way : lines_)
        way.valid = false;
}

double
CacheSim::missRatio() const
{
    if (accesses_ == 0)
        return 0.0;
    return static_cast<double>(misses_) / static_cast<double>(accesses_);
}

} // namespace ujam
