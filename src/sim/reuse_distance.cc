#include "sim/reuse_distance.hh"

#include <algorithm>
#include <sstream>

#include "ir/interp.hh"
#include "support/diagnostics.hh"

namespace ujam
{

ReuseDistanceProfiler::ReuseDistanceProfiler(std::int64_t line_elems)
    : line_elems_(line_elems)
{
    UJAM_ASSERT(line_elems >= 1, "line size must be positive");
}

void
ReuseDistanceProfiler::grow(std::size_t need)
{
    std::size_t capacity = std::max<std::size_t>(64, fenwick_.size());
    while (capacity < need)
        capacity *= 2;
    if (capacity == fenwick_.size())
        return;
    marks_.resize(capacity, 0);
    // Rebuild the tree over the enlarged index range.
    fenwick_.assign(capacity, 0);
    for (std::size_t t = 0; t < capacity; ++t) {
        if (marks_[t] != 0) {
            for (std::size_t i = t + 1; i <= capacity;
                 i += i & (~i + 1)) {
                fenwick_[i - 1] += marks_[t];
            }
        }
    }
}

void
ReuseDistanceProfiler::fenwickAdd(std::size_t index, std::int64_t delta)
{
    marks_[index] += delta;
    for (std::size_t i = index + 1; i <= fenwick_.size(); i += i & (~i + 1))
        fenwick_[i - 1] += delta;
}

std::int64_t
ReuseDistanceProfiler::fenwickSum(std::size_t index) const
{
    std::int64_t sum = 0;
    for (std::size_t i = index + 1; i > 0; i -= i & (~i + 1))
        sum += fenwick_[i - 1];
    return sum;
}

std::int64_t
ReuseDistanceProfiler::access(std::int64_t element_addr)
{
    std::int64_t line = element_addr >= 0
                            ? element_addr / line_elems_
                            : (element_addr - line_elems_ + 1) /
                                  line_elems_;
    std::size_t now = static_cast<std::size_t>(accesses_);
    ++accesses_;
    grow(now + 1);

    auto it = last_time_.find(line);
    std::int64_t distance = coldMiss;
    if (it != last_time_.end()) {
        // Distinct lines whose last access falls after this line's:
        // total marks minus marks at or before it.
        std::size_t prev = it->second;
        distance =
            fenwickSum(now > 0 ? now - 1 : 0) - fenwickSum(prev);
        fenwickAdd(prev, -1);
        it->second = now;
    } else {
        ++cold_;
        last_time_.emplace(line, now);
    }
    fenwickAdd(now, 1);

    if (distance >= 0) {
        std::size_t bucket = 0;
        std::int64_t bound = 2;
        while (distance >= bound) {
            ++bucket;
            bound <<= 1;
        }
        if (histogram_.size() <= bucket)
            histogram_.resize(bucket + 1, 0);
        ++histogram_[bucket];
        raw_distances_.push_back(distance);
    }
    return distance;
}

double
ReuseDistanceProfiler::hitFractionBelow(std::int64_t lines) const
{
    if (raw_distances_.empty())
        return 0.0;
    std::size_t hits = 0;
    for (std::int64_t d : raw_distances_)
        hits += (d < lines);
    return static_cast<double>(hits) /
           static_cast<double>(raw_distances_.size());
}

std::string
ReuseDistanceProfiler::toString() const
{
    std::ostringstream os;
    os << "accesses " << accesses_ << ", cold " << cold_ << "\n";
    std::int64_t lo = 0;
    std::int64_t hi = 2;
    for (std::size_t b = 0; b < histogram_.size(); ++b) {
        os << "  [" << lo << ", " << hi << "): " << histogram_[b]
           << "\n";
        lo = hi;
        hi <<= 1;
    }
    return os.str();
}

ReuseDistanceProfiler
profileReuseDistances(const Program &program, std::int64_t line_elems,
                      const ParamBindings &overrides)
{
    ReuseDistanceProfiler profiler(line_elems);
    Interpreter interp(program, overrides);
    interp.setAccessCallback(
        [&](std::int64_t addr, MemAccessKind kind) {
            if (kind != MemAccessKind::Prefetch)
                profiler.access(addr);
        });
    interp.run();
    return profiler;
}

} // namespace ujam
