#include "support/thread_pool.hh"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "support/string_utils.hh"

namespace ujam
{

namespace
{

/**
 * Set while a thread runs a parallelFor body. Nested parallel
 * requests then run inline: the fan-outs are coarse enough that one
 * level of parallelism saturates the machine, and inlining avoids
 * oversubscribing it.
 */
thread_local bool g_inside_parallel_body = false;

} // namespace

std::size_t
defaultThreads()
{
    const char *env = std::getenv("UJAM_THREADS");
    std::size_t threads = 0;
    if (env && parseCount(env, threads) && threads > 0)
        return threads;
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void
parallelFor(std::size_t n, std::size_t threads,
            const std::function<void(std::size_t)> &body)
{
    std::size_t workers = 1;
    if (n > 1 && threads != 1 && !g_inside_parallel_body)
        workers = std::min(threads == 0 ? defaultThreads() : threads, n);
    if (workers == 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    std::mutex mutex;
    std::size_t next = 0;
    std::exception_ptr error;
    std::size_t first_error = std::numeric_limits<std::size_t>::max();
    auto drain = [&] {
        g_inside_parallel_body = true;
        for (;;) {
            std::size_t i;
            {
                std::lock_guard<std::mutex> lock(mutex);
                if (next >= n)
                    break;
                i = next++;
            }
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex);
                if (!error || i < first_error) {
                    error = std::current_exception();
                    first_error = i;
                }
                next = n; // stop claiming further iterations
            }
        }
        g_inside_parallel_body = false;
    };
    std::vector<std::thread> helpers;
    helpers.reserve(workers - 1);
    try {
        for (std::size_t t = 0; t + 1 < workers; ++t)
            helpers.emplace_back(drain);
    } catch (const std::system_error &) {
        // Out of threads: the ones that started (and the caller)
        // still drain every index.
    }
    drain();
    for (std::thread &helper : helpers)
        helper.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace ujam
