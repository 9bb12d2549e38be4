/**
 * @file
 * Array references in the linear-algebra form of Wolf & Lam.
 *
 * A reference to a d-dimensional array inside a depth-n loop nest is
 * f(i) = H i + c with H a d x n integer matrix and c a d-element
 * integer offset. Two references are *uniformly generated* when they
 * name the same array and share H; the reuse analysis partitions
 * references on exactly that basis, so the IR stores references in
 * this form natively instead of as expression trees.
 */

#ifndef UJAM_IR_ARRAY_REF_HH
#define UJAM_IR_ARRAY_REF_HH

#include <string>
#include <vector>

#include "ir/source_loc.hh"
#include "linalg/int_vector.hh"
#include "linalg/rat_matrix.hh"

namespace ujam
{

/**
 * An affine array reference: array name plus (H, c).
 */
class ArrayRef
{
  public:
    /** Construct an empty (invalid) reference. */
    ArrayRef() = default;

    /**
     * Construct a reference.
     *
     * @param array   Array name.
     * @param rows    Subscript matrix H, one IntVector per array
     *                dimension, each of length nest depth.
     * @param offset  Constant vector c, one entry per array dimension.
     */
    ArrayRef(std::string array, std::vector<IntVector> rows,
             IntVector offset);

    /** @return The array name. */
    const std::string &array() const { return array_; }

    /** @return Number of array dimensions (rows of H). */
    std::size_t dims() const { return rows_.size(); }

    /** @return Loop-nest depth (columns of H). */
    std::size_t depth() const;

    /** @return Row d of H. */
    const IntVector &row(std::size_t d) const { return rows_[d]; }

    /** @return All rows of H. */
    const std::vector<IntVector> &rows() const { return rows_; }

    /** @return The constant offset vector c. */
    const IntVector &offset() const { return offset_; }

    /** @return H as a rational matrix (dims() x depth()). */
    RatMatrix subscriptMatrix() const;

    /**
     * @return H with its first row zeroed -- the spatial subscript
     * matrix Hs. Column-major storage makes the first subscript the
     * contiguous one, so references differing only in it can share a
     * cache line.
     */
    RatMatrix spatialSubscriptMatrix() const;

    /** @return c with its first entry zeroed (spatial offset). */
    IntVector spatialOffset() const;

    /**
     * @return True iff every row and every column of H has at most one
     * nonzero entry (the SIV separable condition of paper section 3.5).
     */
    bool isSivSeparable() const;

    /**
     * @return True iff the reference has the same H as other (same
     * array, same subscript matrix) -- i.e. they are uniformly
     * generated.
     */
    bool uniformlyGeneratedWith(const ArrayRef &other) const;

    /** @return A copy with offset c + H * shift (an unroll copy). */
    ArrayRef shifted(const IntVector &shift) const;

    /**
     * @return The reference with loop k (constant lower bound lb,
     * step s) rewritten as a unit loop from 1: substituting i_k = lb +
     * (i_k' - 1) * s scales loop k's coefficient a to a * s and folds
     * a * (lb - s) into the offset. The source location is dropped.
     */
    ArrayRef unitStepped(std::size_t k, std::int64_t lb,
                         std::int64_t s) const;

    /**
     * @return The coefficient of loop k across all rows, and the row
     * it appears in, as (row, coeff); (-1, 0) if the column is zero.
     * @pre isSivSeparable().
     */
    std::pair<int, std::int64_t> termForLoop(std::size_t k) const;

    /**
     * Structural equality: array, H and c. The source location is
     * deliberately ignored -- two textually distinct references to
     * the same element are the same reference to every analysis.
     */
    bool
    operator==(const ArrayRef &other) const
    {
        return array_ == other.array_ && rows_ == other.rows_ &&
               offset_ == other.offset_;
    }

    /** @return The reference's source position (unknown if built). */
    const SourceLoc &loc() const { return loc_; }
    void setLoc(SourceLoc loc) { loc_ = loc; }

    /** @return "a(i+1, j)"-style rendering given loop variable names. */
    std::string toString(const std::vector<std::string> &ivs) const;

    /** @return Rendering with placeholder names i1..in. */
    std::string toString() const;

  private:
    std::string array_;
    std::vector<IntVector> rows_;
    IntVector offset_;
    SourceLoc loc_;
};

} // namespace ujam

#endif // UJAM_IR_ARRAY_REF_HH
