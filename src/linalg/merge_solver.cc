#include "linalg/merge_solver.hh"

#include "support/diagnostics.hh"

namespace ujam
{

MergeSolver::MergeSolver(const RatMatrix &subscript,
                         const Subspace &localized,
                         const std::vector<bool> &unrollable)
    : depth_(subscript.cols()), localizedDim_(localized.dim())
{
    UJAM_ASSERT(unrollable.size() == depth_,
                "unrollable flag size mismatch");
    UJAM_ASSERT(localized.ambient() == depth_, "localized space mismatch");

    // Unknowns are ordered [y (localized coefficients) | u (unrollable
    // dims)]. Putting y first makes the elimination prefer pivoting on
    // the localized coefficients, leaving any genuinely coupled u
    // component as a free variable we can pin to its minimum, 0.
    for (std::size_t k = 0; k < depth_; ++k) {
        if (unrollable[k])
            unrollCols_.push_back(k);
    }

    const std::size_t dims = subscript.rows();
    const std::size_t ny = localizedDim_;
    const std::size_t nu = unrollCols_.size();
    RatMatrix image =
        subscript.multiply(localized.basis().transpose()); // H L^T

    // Reduce [H L^T | H_u | I]; pivots only in the system's columns.
    RatMatrix system(dims, ny + nu + dims);
    for (std::size_t r = 0; r < dims; ++r) {
        for (std::size_t j = 0; j < ny; ++j)
            system.at(r, j) = image.at(r, j);
        for (std::size_t j = 0; j < nu; ++j)
            system.at(r, ny + j) = subscript.at(r, unrollCols_[j]);
        system.at(r, ny + nu + r) = Rational(1);
    }
    pivots_ = system.reduceToRref(ny + nu);

    rowOps_ = RatMatrix(dims, dims);
    for (std::size_t r = 0; r < dims; ++r) {
        for (std::size_t c = 0; c < dims; ++c)
            rowOps_.at(r, c) = system.at(r, ny + nu + c);
    }
}

std::optional<IntVector>
MergeSolver::shift(const IntVector &delta) const
{
    const std::size_t dims = rowOps_.rows();
    UJAM_ASSERT(delta.size() == dims, "delta/subscript shape mismatch");

    // Row r of E delta: the reduced right-hand side.
    auto reduced = [&](std::size_t r) {
        Rational sum;
        for (std::size_t c = 0; c < dims; ++c) {
            if (delta[c] != 0 && !rowOps_.at(r, c).isZero())
                sum += rowOps_.at(r, c) * Rational(delta[c]);
        }
        return sum;
    };

    // A nonzero right-hand side on a zero row of R is a pivot in the
    // right-hand-side column: inconsistent, the leaders never merge.
    for (std::size_t r = pivots_.size(); r < dims; ++r) {
        if (!reduced(r).isZero())
            return std::nullopt;
    }

    // Read off the u components. A pivot u column gets the RHS value of
    // its row provided the row involves no other free u column (free y
    // columns are harmless only if the u value stays fixed; with y
    // ordered first, any y still free at this point cannot appear in a
    // pivot row of a u column in RREF when the u value is unique).
    // Pinning every free variable to 0 makes the pivot value just the
    // RHS; non-pivot u columns are genuinely free: minimal choice is 0.
    IntVector result(depth_);
    for (std::size_t r = 0; r < pivots_.size(); ++r) {
        if (pivots_[r] < localizedDim_)
            continue; // a localized coefficient; its value is irrelevant
        Rational value = reduced(r);
        if (!value.isInteger())
            return std::nullopt; // fractional shift: copies interleave
        if (value.isNegative())
            return std::nullopt; // merge would need a negative shift
        result[unrollCols_[pivots_[r] - localizedDim_]] = value.toInteger();
    }
    return result;
}

} // namespace ujam
