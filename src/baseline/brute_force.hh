/**
 * @file
 * Brute-force unroll selection (Wolf, Maydan & Chen [2]).
 *
 * For every candidate unroll vector, actually unroll-and-jam the IR,
 * re-measure the resulting body from scratch, and keep the best
 * point. Produces the same decisions as the table method on SIV
 * separable nests while doing work proportional to the total size of
 * all unrolled bodies -- this is the comparison of paper section 2
 * and the ablation benchmark E6.
 */

#ifndef UJAM_BASELINE_BRUTE_FORCE_HH
#define UJAM_BASELINE_BRUTE_FORCE_HH

#include "baseline/exact_counts.hh"
#include "core/optimizer.hh"

namespace ujam
{

/** Outcome of a brute-force search. */
struct BruteForceResult
{
    IntVector unroll;            //!< chosen unroll vector
    double predictedBalance = 0; //!< bL at the chosen vector
    std::int64_t registers = 0;  //!< register pressure there
    std::size_t pointsEvaluated = 0;
    std::size_t peakBodyRefs = 0;  //!< largest unrolled body analyzed
    std::size_t totalBodyRefs = 0; //!< sum over all points (work done)
};

/**
 * Brute-force search with the same objective, safety bounds and
 * candidate loops as chooseUnrollAmounts: the problem comes from
 * unrollProblem, the Eq. 1 parameters from machineLocality and the
 * pick from searchPoints. Only the per-point counts differ: each
 * comes from materializing the unrolled body.
 */
BruteForceResult bruteForceChooseUnroll(const LoopNest &nest,
                                        const MachineModel &machine,
                                        const OptimizerConfig &config = {});

/**
 * Measure one unroll vector by materializing the body (the inner step
 * of the brute-force search; exposed for tests and benchmarks).
 */
BodyCounts measureUnrolledBody(const LoopNest &nest, const IntVector &u,
                               const Subspace &localized,
                               const LocalityParams &params);

} // namespace ujam

#endif // UJAM_BASELINE_BRUTE_FORCE_HH
