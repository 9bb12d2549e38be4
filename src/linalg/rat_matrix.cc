#include "linalg/rat_matrix.hh"

#include <algorithm>
#include <sstream>

#include "support/diagnostics.hh"

namespace ujam
{

RatVector
toRatVector(const IntVector &v)
{
    RatVector result;
    result.reserve(v.size());
    for (std::int64_t x : v)
        result.emplace_back(x);
    return result;
}

bool
allIntegral(const RatVector &v)
{
    for (const Rational &x : v) {
        if (!x.isInteger())
            return false;
    }
    return true;
}

RatMatrix::RatMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols)
{}

RatMatrix
RatMatrix::fromRows(const std::vector<RatVector> &rows)
{
    if (rows.empty())
        return RatMatrix();
    RatMatrix result(rows.size(), rows.front().size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        UJAM_ASSERT(rows[r].size() == result.cols_, "ragged matrix rows");
        for (std::size_t c = 0; c < result.cols_; ++c)
            result.at(r, c) = rows[r][c];
    }
    return result;
}

RatMatrix
RatMatrix::fromIntRows(const std::vector<std::vector<std::int64_t>> &rows)
{
    std::vector<RatVector> converted;
    converted.reserve(rows.size());
    for (const auto &row : rows) {
        RatVector rat_row;
        rat_row.reserve(row.size());
        for (std::int64_t x : row)
            rat_row.emplace_back(x);
        converted.push_back(std::move(rat_row));
    }
    return fromRows(converted);
}

RatMatrix
RatMatrix::identity(std::size_t n)
{
    RatMatrix result(n, n);
    for (std::size_t i = 0; i < n; ++i)
        result.at(i, i) = Rational(1);
    return result;
}

const Rational &
RatMatrix::at(std::size_t r, std::size_t c) const
{
    UJAM_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
}

Rational &
RatMatrix::at(std::size_t r, std::size_t c)
{
    UJAM_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
}

RatVector
RatMatrix::row(std::size_t r) const
{
    RatVector result(cols_);
    for (std::size_t c = 0; c < cols_; ++c)
        result[c] = at(r, c);
    return result;
}

RatVector
RatMatrix::column(std::size_t c) const
{
    RatVector result(rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        result[r] = at(r, c);
    return result;
}

RatMatrix
RatMatrix::transpose() const
{
    RatMatrix result(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t c = 0; c < cols_; ++c)
            result.at(c, r) = at(r, c);
    }
    return result;
}

RatVector
RatMatrix::apply(const RatVector &v) const
{
    UJAM_ASSERT(v.size() == cols_, "shape mismatch in matrix-vector apply");
    RatVector result(rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
        Rational sum;
        for (std::size_t c = 0; c < cols_; ++c) {
            if (!v[c].isZero() && !at(r, c).isZero())
                sum += at(r, c) * v[c];
        }
        result[r] = sum;
    }
    return result;
}

RatVector
RatMatrix::apply(const IntVector &v) const
{
    return apply(toRatVector(v));
}

RatMatrix
RatMatrix::multiply(const RatMatrix &other) const
{
    UJAM_ASSERT(cols_ == other.rows_, "shape mismatch in matrix multiply");
    RatMatrix result(rows_, other.cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t k = 0; k < cols_; ++k) {
            if (at(r, k).isZero())
                continue;
            for (std::size_t c = 0; c < other.cols_; ++c)
                result.at(r, c) += at(r, k) * other.at(k, c);
        }
    }
    return result;
}

void
RatMatrix::appendRows(const RatMatrix &other)
{
    if (rows_ == 0 && cols_ == 0) {
        *this = other;
        return;
    }
    UJAM_ASSERT(cols_ == other.cols_, "shape mismatch in row append");
    data_.insert(data_.end(), other.data_.begin(), other.data_.end());
    rows_ += other.rows_;
}

void
RatMatrix::appendRow(const RatVector &row)
{
    if (rows_ == 0 && cols_ == 0)
        cols_ = row.size();
    UJAM_ASSERT(row.size() == cols_, "shape mismatch in row append");
    data_.insert(data_.end(), row.begin(), row.end());
    ++rows_;
}

std::vector<std::size_t>
RatMatrix::reduceToRref(std::size_t pivotColumns)
{
    std::vector<std::size_t> pivots;
    std::size_t pivot_row = 0;
    const std::size_t last = std::min(pivotColumns, cols_);
    for (std::size_t col = 0; col < last && pivot_row < rows_; ++col) {
        // Find a row with a nonzero entry in this column.
        std::size_t found = rows_;
        for (std::size_t r = pivot_row; r < rows_; ++r) {
            if (!at(r, col).isZero()) {
                found = r;
                break;
            }
        }
        if (found == rows_)
            continue;
        if (found != pivot_row) {
            for (std::size_t c = 0; c < cols_; ++c)
                std::swap(at(found, c), at(pivot_row, c));
        }
        Rational inv = Rational(1) / at(pivot_row, col);
        for (std::size_t c = 0; c < cols_; ++c) {
            if (!at(pivot_row, c).isZero())
                at(pivot_row, c) *= inv;
        }
        for (std::size_t r = 0; r < rows_; ++r) {
            if (r == pivot_row || at(r, col).isZero())
                continue;
            Rational factor = at(r, col);
            for (std::size_t c = 0; c < cols_; ++c) {
                if (!at(pivot_row, c).isZero())
                    at(r, c) -= factor * at(pivot_row, c);
            }
        }
        pivots.push_back(col);
        ++pivot_row;
    }
    return pivots;
}

std::size_t
RatMatrix::rank() const
{
    RatMatrix copy = *this;
    return copy.reduceToRref().size();
}

RatMatrix
RatMatrix::kernelBasis() const
{
    RatMatrix reduced = *this;
    std::vector<std::size_t> pivots = reduced.reduceToRref();

    std::vector<bool> is_pivot(cols_, false);
    for (std::size_t col : pivots)
        is_pivot[col] = true;

    RatMatrix basis(0, cols_);
    basis = RatMatrix(0, cols_);
    for (std::size_t free_col = 0; free_col < cols_; ++free_col) {
        if (is_pivot[free_col])
            continue;
        RatVector vec(cols_);
        vec[free_col] = Rational(1);
        for (std::size_t r = 0; r < pivots.size(); ++r)
            vec[pivots[r]] = -reduced.at(r, free_col);
        basis.appendRow(vec);
    }
    return basis;
}

std::optional<RatVector>
RatMatrix::solve(const RatVector &b) const
{
    UJAM_ASSERT(b.size() == rows_, "shape mismatch in solve");
    RatMatrix augmented(rows_, cols_ + 1);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t c = 0; c < cols_; ++c)
            augmented.at(r, c) = at(r, c);
        augmented.at(r, cols_) = b[r];
    }
    std::vector<std::size_t> pivots = augmented.reduceToRref();
    // Inconsistent iff a pivot lands in the RHS column.
    if (!pivots.empty() && pivots.back() == cols_)
        return std::nullopt;

    RatVector solution(cols_);
    for (std::size_t r = 0; r < pivots.size(); ++r)
        solution[pivots[r]] = augmented.at(r, cols_);
    return solution;
}

std::string
RatMatrix::toString() const
{
    std::ostringstream os;
    for (std::size_t r = 0; r < rows_; ++r) {
        os << "[";
        for (std::size_t c = 0; c < cols_; ++c) {
            if (c > 0)
                os << " ";
            os << at(r, c);
        }
        os << "]\n";
    }
    return os.str();
}

} // namespace ujam
