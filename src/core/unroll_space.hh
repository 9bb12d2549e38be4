/**
 * @file
 * The unroll space (paper section 4.1).
 *
 * An unroll vector assigns an unroll amount to every loop of a nest;
 * the innermost entry is always 0 (inner unrolling does not change
 * balance) and in practice at most two outer loops are unrolled. The
 * unroll space is the box of vectors searched by the optimizer and
 * indexed by the precomputed tables.
 */

#ifndef UJAM_CORE_UNROLL_SPACE_HH
#define UJAM_CORE_UNROLL_SPACE_HH

#include <vector>

#include "linalg/int_vector.hh"

namespace ujam
{

/**
 * A box-shaped set of unroll vectors over selected loops.
 */
class UnrollSpace
{
  public:
    /** Construct an empty space over a depth-0 nest. */
    UnrollSpace() = default;

    /**
     * Construct a space.
     *
     * @param depth  Nest depth (length of unroll vectors).
     * @param dims   Loops that may be unrolled (each < depth - 1).
     * @param limits Inclusive per-dim maximum unroll, aligned with
     *               dims.
     */
    UnrollSpace(std::size_t depth, std::vector<std::size_t> dims,
                std::vector<std::int64_t> limits);

    /** Convenience: the same limit for every unrolled dim. */
    UnrollSpace(std::size_t depth, std::vector<std::size_t> dims,
                std::int64_t limit);

    /** @return Nest depth. */
    std::size_t depth() const { return depth_; }

    /** @return The unrollable loop indices. */
    const std::vector<std::size_t> &dims() const { return dims_; }

    /** @return Per-dim inclusive limits (aligned with dims()). */
    const std::vector<std::int64_t> &limits() const { return limits_; }

    /**
     * @return Per-dim dense-index strides (aligned with dims()):
     * stride[i] is the index distance of one step along dims()[i].
     * dims()[0] is the slowest-varying digit, so strides descend.
     */
    const std::vector<std::size_t> &strides() const { return strides_; }

    /** @return Number of vectors in the space (cached). */
    std::size_t size() const { return size_; }

    /** @return True iff u lies in the space (zeros elsewhere). */
    bool contains(const IntVector &u) const;

    /** @return Per-loop flags marking unrollable dims (cached). */
    const std::vector<bool> &unrollableFlags() const { return flags_; }

    /** @return Dense index of u (mixed radix, dims()[0] slowest). */
    std::size_t indexOf(const IntVector &u) const;

    /** @return The unroll vector at dense index i. */
    IntVector vectorAt(std::size_t i) const;

    /** @return The componentwise-maximal vector of the space (cached). */
    const IntVector &maxVector() const { return max_; }

  private:
    std::size_t depth_ = 0;
    std::vector<std::size_t> dims_;
    std::vector<std::int64_t> limits_;
    // Derived, computed once at construction so the hot table kernels
    // never recompute or allocate per point.
    std::vector<std::size_t> strides_;
    std::vector<bool> flags_;
    IntVector max_;
    std::size_t size_ = 1;
};

/**
 * A dense table of values indexed by unroll vector.
 */
class UnrollTable
{
  public:
    UnrollTable() = default;

    /** Construct with every entry set to init. */
    UnrollTable(const UnrollSpace &space, std::int64_t init);

    const UnrollSpace &space() const { return space_; }

    std::int64_t at(const IntVector &u) const;
    std::int64_t &at(const IntVector &u);

    std::int64_t atIndex(std::size_t i) const { return values_[i]; }
    std::int64_t &atIndex(std::size_t i) { return values_[i]; }

    /** Set every entry to value. */
    void fill(std::int64_t value);

    /** Add delta to every entry u' with from <= u' (componentwise). */
    void addBox(const IntVector &from, std::int64_t delta);

    /** Add the entries of other into this table. */
    void accumulate(const UnrollTable &other);

    /**
     * @return The lattice prefix sum: result[u] = sum of this[u'] over
     * all u' <= u componentwise (the paper's Sum function, Fig. 2).
     */
    UnrollTable prefixSum() const;

  private:
    UnrollSpace space_;
    std::vector<std::int64_t> values_;
};

} // namespace ujam

#endif // UJAM_CORE_UNROLL_SPACE_HH
