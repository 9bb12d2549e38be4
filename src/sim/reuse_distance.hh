/**
 * @file
 * Reuse-distance (LRU stack distance) profiling.
 *
 * The reuse distance of an access is the number of distinct cache
 * lines touched since the previous access to the same line; an access
 * hits in a fully-associative LRU cache of C lines exactly when its
 * reuse distance is < C. Profiling a loop's address stream therefore
 * measures its locality independently of any particular cache -- the
 * empirical counterpart of the paper's Eq. 1 model, used here to
 * validate it (see the model-fidelity experiment).
 *
 * Implementation: Olken's algorithm -- last-access timestamps per
 * line plus a Fenwick tree over time counting distinct lines touched
 * since, O(log n) per access.
 */

#ifndef UJAM_SIM_REUSE_DISTANCE_HH
#define UJAM_SIM_REUSE_DISTANCE_HH

#include <cstdint>
#include <map>
#include <vector>

#include "ir/loop_nest.hh"

namespace ujam
{

/**
 * Online reuse-distance profiler over a line-granular address stream.
 */
class ReuseDistanceProfiler
{
  public:
    /** Distance value reported for first-ever touches. */
    static constexpr std::int64_t coldMiss = -1;

    /**
     * @param line_elems Cache-line size in elements (addresses are
     *        divided by this before profiling).
     */
    explicit ReuseDistanceProfiler(std::int64_t line_elems);

    /**
     * Record one access.
     * @param element_addr Element address.
     * @return The access's reuse distance in distinct lines, or
     *         coldMiss on the first touch of a line.
     */
    std::int64_t access(std::int64_t element_addr);

    /** @return Accesses recorded. */
    std::uint64_t accesses() const { return accesses_; }

    /** @return First-touch (cold) accesses. */
    std::uint64_t coldMisses() const { return cold_; }

    /**
     * Histogram of observed distances, bucketed by powers of two:
     * bucket b holds distances in [2^b, 2^(b+1)) with bucket 0 for
     * distance 0..1. Cold misses are not included.
     */
    const std::vector<std::uint64_t> &histogram() const
    {
        return histogram_;
    }

    /**
     * @return Fraction of (non-cold) accesses whose reuse distance is
     * strictly below the given number of lines -- the hit ratio of a
     * fully-associative LRU cache of that capacity.
     */
    double hitFractionBelow(std::int64_t lines) const;

    /** @return Multi-line rendering of the histogram. */
    std::string toString() const;

  private:
    void fenwickAdd(std::size_t index, std::int64_t delta);
    std::int64_t fenwickSum(std::size_t index) const;

    std::int64_t line_elems_;
    std::uint64_t accesses_ = 0;
    std::uint64_t cold_ = 0;

    void grow(std::size_t need);

    std::map<std::int64_t, std::size_t> last_time_; //!< line -> time
    std::vector<std::int64_t> marks_;   //!< 1 at last-access times
    std::vector<std::int64_t> fenwick_; //!< prefix sums over marks_
    std::vector<std::uint64_t> histogram_;
    std::vector<std::int64_t> raw_distances_; //!< for exact quantiles
};

/**
 * Profile every array access of a program run.
 *
 * @param program    The program; its arrays are not seeded, since no
 *                   access address depends on an array value.
 * @param line_elems Line size in elements.
 * @param overrides  Parameter overrides.
 * @return The filled profiler.
 */
ReuseDistanceProfiler profileReuseDistances(
    const Program &program, std::int64_t line_elems,
    const ParamBindings &overrides = {});

} // namespace ujam

#endif // UJAM_SIM_REUSE_DISTANCE_HH
