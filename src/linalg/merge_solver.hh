/**
 * @file
 * Merge-point solver for uniformly generated references.
 *
 * Two lex-ordered leaders r1 = (H, c1) and r2 = (H, c2) of a uniformly
 * generated set merge into the same group-temporal (or group-spatial,
 * with H's first row zeroed) set after unroll-and-jam by u exactly
 * when a copy of r1 shifted by u reaches r2 modulo the localized
 * iteration space:
 *
 *     exists x in L :  H (u + x) = c2 - c1
 *
 * The solver returns the componentwise-minimal nonnegative integer u
 * supported on the unrollable dimensions, or nullopt when no such
 * shift exists (the leaders never merge). This is the closed form
 * that lets the paper build unroll tables without unrolling any data
 * structure.
 *
 * The system's matrix [H L^T | H_u] depends only on (H, L, unrollable
 * dims), not on the pair, so it is reduced once: the solver keeps the
 * row operations E that bring it to RREF R. Reducing [H L^T | H_u |
 * delta] applies the same operations, giving [R | E delta], so each
 * pair costs one matrix-vector product instead of an elimination.
 */

#ifndef UJAM_LINALG_MERGE_SOLVER_HH
#define UJAM_LINALG_MERGE_SOLVER_HH

#include <optional>
#include <vector>

#include "linalg/rat_matrix.hh"
#include "linalg/subspace.hh"

namespace ujam
{

/**
 * Merge shifts for one (H, localized space, unrollable dims).
 *
 * Dimensions not marked unrollable are fixed to u_k = 0. The solution
 * restricted to the unrollable dimensions is unique for separable SIV
 * subscript matrices; if the system leaves an unrollable component
 * genuinely free, the minimal choice 0 is used.
 */
class MergeSolver
{
  public:
    /**
     * Reduce the system once.
     *
     * @param subscript   The d x n subscript matrix H.
     * @param localized   The localized iteration space L (in Q^n).
     * @param unrollable  Per-loop flag; u is supported on true entries.
     */
    MergeSolver(const RatMatrix &subscript, const Subspace &localized,
                const std::vector<bool> &unrollable);

    /**
     * Solve exists x in localized: H (u + x) = delta for the minimal
     * nonnegative integer u supported on the unrollable dimensions.
     *
     * @param delta The d-element constant difference c2 - c1.
     * @return The minimal shift, or nullopt if the leaders never merge.
     */
    std::optional<IntVector> shift(const IntVector &delta) const;

  private:
    std::size_t depth_;
    std::size_t localizedDim_;          //!< columns of H L^T
    std::vector<std::size_t> unrollCols_; //!< loop of each u column
    std::vector<std::size_t> pivots_;   //!< pivot column per row of R
    RatMatrix rowOps_;                  //!< E, d x d: E [H L^T | H_u] = R
};

} // namespace ujam

#endif // UJAM_LINALG_MERGE_SOLVER_HH
