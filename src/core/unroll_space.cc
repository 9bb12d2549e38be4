#include "core/unroll_space.hh"

#include <algorithm>

#include "support/diagnostics.hh"

namespace ujam
{

UnrollSpace::UnrollSpace(std::size_t depth, std::vector<std::size_t> dims,
                         std::vector<std::int64_t> limits)
    : depth_(depth), dims_(std::move(dims)), limits_(std::move(limits))
{
    UJAM_ASSERT(dims_.size() == limits_.size(),
                "dims/limits size mismatch");
    for (std::size_t i = 0; i < dims_.size(); ++i) {
        UJAM_ASSERT(dims_[i] + 1 < depth_ || depth_ == 0,
                    "the innermost loop cannot be unrolled");
        UJAM_ASSERT(limits_[i] >= 0, "negative unroll limit");
        for (std::size_t j = i + 1; j < dims_.size(); ++j)
            UJAM_ASSERT(dims_[i] != dims_[j], "duplicate unroll dim");
    }

    // Derived data the table kernels depend on being allocation-free:
    // mixed-radix strides (dims_[0] slowest), the cached point count,
    // the per-loop unrollable flags and the maximal vector.
    strides_.assign(dims_.size(), 1);
    size_ = 1;
    for (std::size_t d = dims_.size(); d > 0; --d) {
        strides_[d - 1] = size_;
        size_ *= static_cast<std::size_t>(limits_[d - 1] + 1);
    }
    flags_.assign(depth_, false);
    for (std::size_t dim : dims_)
        flags_[dim] = true;
    max_ = IntVector(depth_);
    for (std::size_t i = 0; i < dims_.size(); ++i)
        max_[dims_[i]] = limits_[i];
}

UnrollSpace::UnrollSpace(std::size_t depth, std::vector<std::size_t> dims,
                         std::int64_t limit)
    : UnrollSpace(depth, dims,
                  std::vector<std::int64_t>(dims.size(), limit))
{}

bool
UnrollSpace::contains(const IntVector &u) const
{
    if (u.size() != depth_)
        return false;
    for (std::size_t k = 0; k < depth_; ++k) {
        if (!flags_[k] && u[k] != 0)
            return false;
    }
    for (std::size_t i = 0; i < dims_.size(); ++i) {
        if (u[dims_[i]] < 0 || u[dims_[i]] > limits_[i])
            return false;
    }
    return true;
}

std::size_t
UnrollSpace::indexOf(const IntVector &u) const
{
    UJAM_ASSERT(contains(u), "unroll vector ", u.toString(),
                " outside the space");
    std::size_t index = 0;
    for (std::size_t i = 0; i < dims_.size(); ++i)
        index += static_cast<std::size_t>(u[dims_[i]]) * strides_[i];
    return index;
}

IntVector
UnrollSpace::vectorAt(std::size_t i) const
{
    UJAM_ASSERT(i < size_, "dense index outside the space");
    IntVector u(depth_);
    for (std::size_t d = 0; d < dims_.size(); ++d) {
        u[dims_[d]] = static_cast<std::int64_t>(i / strides_[d]);
        i %= strides_[d];
    }
    return u;
}

UnrollTable::UnrollTable(const UnrollSpace &space, std::int64_t init)
    : space_(space), values_(space.size(), init)
{}

std::int64_t
UnrollTable::at(const IntVector &u) const
{
    return values_[space_.indexOf(u)];
}

std::int64_t &
UnrollTable::at(const IntVector &u)
{
    return values_[space_.indexOf(u)];
}

void
UnrollTable::fill(std::int64_t value)
{
    std::fill(values_.begin(), values_.end(), value);
}

void
UnrollTable::addBox(const IntVector &from, std::int64_t delta)
{
    // The box { u : from <= u } is empty unless every coordinate of
    // from outside the unrolled dims is <= 0 (all points have zeros
    // there), and its intersection with the space is the sub-box
    // [max(from,0), limit] per unrolled dim. Walk that sub-box
    // directly with an odometer over the digit strides -- no
    // per-point decode, no allocation.
    const std::vector<std::size_t> &dims = space_.dims();
    const std::vector<std::int64_t> &limits = space_.limits();
    const std::vector<std::size_t> &strides = space_.strides();
    const std::vector<bool> &flags = space_.unrollableFlags();

    for (std::size_t k = 0; k < from.size(); ++k) {
        if ((k >= flags.size() || !flags[k]) && from[k] > 0)
            return;
    }

    const std::size_t ndims = dims.size();
    std::size_t base = 0;
    bool empty = false;
    // lo[d]..limits[d] along each dim; base is the index of lo.
    std::vector<std::int64_t> lo(ndims), digit(ndims);
    for (std::size_t d = 0; d < ndims; ++d) {
        std::int64_t f =
            dims[d] < from.size() ? from[dims[d]] : 0;
        lo[d] = f < 0 ? 0 : f;
        if (lo[d] > limits[d])
            empty = true;
        digit[d] = lo[d];
        base += static_cast<std::size_t>(lo[d]) * strides[d];
    }
    if (empty)
        return;
    if (ndims == 0) {
        values_[0] += delta;
        return;
    }

    std::size_t index = base;
    for (;;) {
        values_[index] += delta;
        // Odometer increment, innermost (fastest stride) digit first.
        std::size_t d = ndims;
        for (;;) {
            if (d == 0)
                return;
            --d;
            if (digit[d] < limits[d]) {
                ++digit[d];
                index += strides[d];
                break;
            }
            index -= static_cast<std::size_t>(digit[d] - lo[d]) *
                     strides[d];
            digit[d] = lo[d];
        }
    }
}

void
UnrollTable::accumulate(const UnrollTable &other)
{
    UJAM_ASSERT(values_.size() == other.values_.size(),
                "accumulating tables over different spaces");
    for (std::size_t i = 0; i < values_.size(); ++i)
        values_[i] += other.values_[i];
}

UnrollTable
UnrollTable::prefixSum() const
{
    UnrollTable result = *this;
    const std::vector<std::size_t> &strides = space_.strides();
    const std::vector<std::int64_t> &limits = space_.limits();
    std::vector<std::int64_t> &v = result.values_;

    // Standard multidimensional prefix sum, one unrolled dimension at
    // a time, as stride walks over the dense array: for dimension d
    // the array is blocks of (limit+1) consecutive stride-sized
    // chunks; add each chunk into the next.
    for (std::size_t d = 0; d < strides.size(); ++d) {
        const std::size_t stride = strides[d];
        const std::size_t radix =
            static_cast<std::size_t>(limits[d] + 1);
        const std::size_t block = stride * radix;
        for (std::size_t b = 0; b < v.size(); b += block) {
            for (std::size_t r = 1; r < radix; ++r) {
                std::int64_t *cur = v.data() + b + r * stride;
                const std::int64_t *prev = cur - stride;
                for (std::size_t i = 0; i < stride; ++i)
                    cur[i] += prev[i];
            }
        }
    }
    return result;
}

} // namespace ujam
