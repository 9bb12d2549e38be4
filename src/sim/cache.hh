/**
 * @file
 * Set-associative LRU cache simulator.
 *
 * Addresses are element indices in the interpreter's global element
 * space; the cache works in bytes internally (elementBytes per
 * element). Used by the execution-time experiments (Figs. 8/9) to
 * charge realistic miss counts to each loop variant.
 */

#ifndef UJAM_SIM_CACHE_HH
#define UJAM_SIM_CACHE_HH

#include <cstdint>
#include <vector>

namespace ujam
{

/**
 * A single-level data cache with LRU replacement.
 */
class CacheSim
{
  public:
    /**
     * Construct a cache.
     *
     * @param cache_bytes   Total capacity; must be a multiple of
     *                      line_bytes * associativity.
     * @param line_bytes    Line size (power of two).
     * @param associativity Ways per set (>= 1).
     * @param element_bytes Bytes per array element (default 8).
     */
    CacheSim(std::int64_t cache_bytes, std::int64_t line_bytes,
             std::int64_t associativity, std::int64_t element_bytes = 8);

    /**
     * Access one element.
     *
     * @param element_addr Element index in the global element space
     *                     (non-negative).
     * @param write        True for stores (write-allocate, write-back).
     * @return True on a hit.
     */
    bool access(std::int64_t element_addr, bool write);

    /** Invalidate everything and keep statistics. */
    void flush();

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }

    /** @return Miss ratio in [0, 1]; 0 when no accesses happened. */
    double missRatio() const;

    std::int64_t lineBytes() const { return line_bytes_; }
    std::int64_t sets() const { return sets_; }

  private:
    std::int64_t line_bytes_;
    std::int64_t element_bytes_;
    std::int64_t sets_;
    std::int64_t ways_;
    /**
     * Per way (sets_ x ways_, row-major): the held line's tag + 1, or
     * 0 when the way is empty -- so a new cache is one zero fill.
     */
    std::vector<std::int64_t> tags_;
    /** Per way: the clock at its last use; empty when direct-mapped. */
    std::vector<std::uint64_t> last_use_;

    std::uint64_t clock_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace ujam

#endif // UJAM_SIM_CACHE_HH
