/**
 * @file
 * Dense matrices over the rationals with exact elimination.
 *
 * The reuse analysis needs exact kernels (self-temporal/self-spatial
 * reuse vector spaces are ker H and ker Hs) and exact solutions of
 * small linear systems (group-reuse membership, merge points). All
 * matrices here are tiny (loop depth x array rank), so simplicity and
 * exactness beat asymptotic cleverness.
 */

#ifndef UJAM_LINALG_RAT_MATRIX_HH
#define UJAM_LINALG_RAT_MATRIX_HH

#include <optional>
#include <string>
#include <vector>

#include "linalg/int_vector.hh"
#include "support/rational.hh"

namespace ujam
{

/** A vector over the rationals. */
using RatVector = std::vector<Rational>;

/** @return v as a RatVector. */
RatVector toRatVector(const IntVector &v);

/** @return True iff every component of v is an integer. */
bool allIntegral(const RatVector &v);

/**
 * A dense rows x cols matrix of Rational entries.
 */
class RatMatrix
{
  public:
    /** Construct an empty 0x0 matrix. */
    RatMatrix() : rows_(0), cols_(0) {}

    /** Construct a zero matrix of the given shape. */
    RatMatrix(std::size_t rows, std::size_t cols);

    /** Construct from explicit rows; all rows must have equal length. */
    static RatMatrix fromRows(const std::vector<RatVector> &rows);

    /** Construct from integer rows. */
    static RatMatrix fromIntRows(
        const std::vector<std::vector<std::int64_t>> &rows);

    /** @return The n x n identity. */
    static RatMatrix identity(std::size_t n);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    const Rational &at(std::size_t r, std::size_t c) const;
    Rational &at(std::size_t r, std::size_t c);

    /** @return Row r as a vector. */
    RatVector row(std::size_t r) const;

    /** @return Column c as a vector. */
    RatVector column(std::size_t c) const;

    /** @return The transpose. */
    RatMatrix transpose() const;

    /** @return this * v. @pre v.size() == cols() */
    RatVector apply(const RatVector &v) const;

    /** @return this * v for an integer vector. */
    RatVector apply(const IntVector &v) const;

    /** @return this * other. @pre cols() == other.rows() */
    RatMatrix multiply(const RatMatrix &other) const;

    /** Append the rows of other. @pre cols() == other.cols() */
    void appendRows(const RatMatrix &other);

    /** Append a single row. */
    void appendRow(const RatVector &row);

    /**
     * Reduce in place to reduced row echelon form.
     *
     * @param pivotColumns Pivots are sought only in the first
     *        pivotColumns columns; the row operations still apply to
     *        every column, so reducing [A | I] this way leaves [R | E]
     *        with E A = R. Default: every column.
     * @return The pivot column index of each nonzero row, in order.
     */
    std::vector<std::size_t> reduceToRref(
        std::size_t pivotColumns = static_cast<std::size_t>(-1));

    /** @return The rank (via a copy; *this is unchanged). */
    std::size_t rank() const;

    /**
     * @return A basis of the null space { x : A x = 0 } as rows of the
     * result (result.cols() == cols(); result.rows() == nullity).
     */
    RatMatrix kernelBasis() const;

    /**
     * Solve A x = b.
     *
     * @param b Right-hand side; b.size() == rows().
     * @return A particular solution with every free variable set to 0,
     *         or nullopt if the system is inconsistent.
     */
    std::optional<RatVector> solve(const RatVector &b) const;

    bool operator==(const RatMatrix &other) const = default;

    /** @return Multi-line rendering for debugging. */
    std::string toString() const;

  private:
    std::size_t rows_;
    std::size_t cols_;
    std::vector<Rational> data_;
};

} // namespace ujam

#endif // UJAM_LINALG_RAT_MATRIX_HH
