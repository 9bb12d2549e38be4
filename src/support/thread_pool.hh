/**
 * @file
 * The one indexed parallel loop, parallelFor.
 *
 * The optimization pipeline has three embarrassingly parallel
 * fan-outs (per-nest optimization, per-candidate brute force,
 * per-routine corpus analysis), and ujam-serve's batch mode fans out
 * across request lines. All of them follow the same discipline:
 * workers compute into index-addressed slots and the caller reduces
 * the slots in index order, so the parallel result is bit-identical
 * to the serial one regardless of scheduling.
 *
 * No external dependencies: every call starts its own scoped
 * std::threads and joins them before it returns, so concurrent
 * callers share no state. A body that throws stops the loop; the
 * first exception (by iteration index) is rethrown on the calling
 * thread.
 */

#ifndef UJAM_SUPPORT_THREAD_POOL_HH
#define UJAM_SUPPORT_THREAD_POOL_HH

#include <cstddef>
#include <functional>

namespace ujam
{

/**
 * @return The machine-default worker count: the UJAM_THREADS
 * environment variable if it is set and reads whole as a positive
 * integer, otherwise std::thread::hardware_concurrency() (>= 1).
 */
std::size_t defaultThreads();

/**
 * Run body(i) for every i in [0, n), potentially in parallel, and
 * block until all iterations finish.
 *
 * A call made from inside a body runs inline on that body's thread:
 * one level of parallelism saturates the machine.
 *
 * @param n       Iteration count.
 * @param threads 0 = defaultThreads(), 1 = inline serial in index
 *                order, k > 1 = at most k threads (the caller is
 *                one of them).
 * @param body    Called once per index.
 */
void parallelFor(std::size_t n, std::size_t threads,
                 const std::function<void(std::size_t)> &body);

} // namespace ujam

#endif // UJAM_SUPPORT_THREAD_POOL_HH
