/**
 * @file
 * The ujam-serve supervision tree: crash containment for the
 * socket service. `ujam-serve --socket` always runs here, with one
 * worker unless `--workers N` asks for more; the supervisor is the
 * only code that binds, drains and unlinks the listening socket.
 *
 * The supervisor binds the listening socket once, forks N worker
 * processes that each run a full UjamServer on the shared fd (the
 * AF_UNIX analogue of SO_REUSEPORT: every worker accepts, the kernel
 * load-balances), and then does nothing but watch children. A worker
 * that dies -- SIGKILL, SIGSEGV, nonzero exit -- loses only its own
 * in-flight connections: the listening socket survives in the
 * supervisor, sibling workers keep serving, and the dead slot is
 * re-forked after an exponential backoff with deterministic jitter.
 * Which worker takes a connection never changes a response byte, so
 * the shared listener (non-blocking, see bindListenSocket) is the
 * only way connections reach workers; while every worker is between
 * restarts, new connections wait in the listen backlog.
 *
 * A circuit breaker bounds restart storms: more than breakerCrashes
 * crashes inside a sliding breakerWindowMs window stops the forking,
 * SIGTERMs the survivors and falls back to an in-process *degraded*
 * server -- cache-only, every miss answered with status "degraded" --
 * so cached answers stay available even when the pipeline is
 * reproducibly crashing. The transition is one-way; the process exit
 * code reports it.
 *
 * Shutdown (SIGTERM/SIGINT to the supervisor, or a `shutdown` frame
 * answered by any worker, which makes that worker exit cleanly)
 * drains every worker within drainMs: workers finish in-flight
 * frames and exit 0; stragglers past the deadline are SIGKILLed and
 * the exit code says so.
 *
 * Exit codes: 0 clean drain; kExitDegraded the breaker tripped;
 * kExitForcedKill at least one worker had to be SIGKILLed during
 * shutdown (forced kills win when both apply).
 *
 * All counters live in one MAP_SHARED anonymous mapping created
 * before the first fork (ServiceMetrics is flat relaxed atomics, so
 * processes share it safely); the `metrics` op on any worker
 * therefore reports service-wide totals plus the per-worker
 * restart/crash history kept in the same block.
 *
 * The supervisor itself stays single-threaded until it stops forking
 * (signals are consumed by sigtimedwait, never by handlers), so fork
 * never duplicates a lock-holding thread; the degraded server's
 * worker threads start only after the last fork.
 */

#ifndef UJAM_SERVICE_SUPERVISOR_HH
#define UJAM_SERVICE_SUPERVISOR_HH

#include <cstdint>
#include <deque>
#include <string>

#include "service/server.hh"

namespace ujam
{

/** Upper bound on worker processes (sizes the shared slot table). */
constexpr std::size_t kMaxWorkers = 32;

/** Supervisor exit code: the circuit breaker tripped. */
constexpr int kExitDegraded = 3;
/** Supervisor exit code: shutdown had to SIGKILL stragglers. */
constexpr int kExitForcedKill = 4;

/** Supervision knobs. */
struct SupervisorConfig
{
    /** The socket the supervisor binds, serves through its workers
     * and unlinks on exit. */
    std::string socketPath;
    /** Per-worker server template; listenFd/sharedMetrics are filled
     * in per worker and must be left unset. */
    ServerConfig server;
    std::size_t workers = 1; //!< clamped to [1, kMaxWorkers]

    /** Circuit breaker: > breakerCrashes crashes within
     * breakerWindowMs degrade the service to cache-only. */
    std::uint64_t breakerCrashes = 5;
    std::int64_t breakerWindowMs = 30000;

    /** Restart backoff: base * 2^(consecutive crashes - 1) plus
     * deterministic jitter, capped at backoffMaxMs. */
    std::int64_t backoffBaseMs = 50;
    std::int64_t backoffMaxMs = 5000;

    /** Shutdown drain deadline before stragglers are SIGKILLed. */
    std::int64_t drainMs = 5000;

    bool dumpMetrics = false; //!< print the final document on exit
};

/**
 * Sliding-window crash counter behind the circuit breaker.
 *
 * Pure bookkeeping (the caller supplies timestamps) so the trip
 * condition is unit-testable without forking anything.
 */
class CrashWindow
{
  public:
    /**
     * @param limit    Crashes tolerated inside the window; one more
     *                 trips the breaker.
     * @param windowMs Sliding window width.
     */
    CrashWindow(std::uint64_t limit, std::int64_t window_ms)
        : limit_(limit), windowMs_(window_ms)
    {
    }

    /**
     * Record a crash at now_ms (monotonic, caller-defined origin).
     * @return True when this crash trips the breaker.
     */
    bool recordCrash(std::int64_t now_ms);

    /** @return Crashes currently inside the window ending at now_ms. */
    std::size_t inWindow(std::int64_t now_ms) const;

  private:
    std::uint64_t limit_;
    std::int64_t windowMs_;
    std::deque<std::int64_t> crashes_;
};

/**
 * @return The restart delay for a worker's Nth consecutive crash:
 * exponential in consecutive_crashes with a deterministic jitter
 * derived from (worker, consecutive_crashes), so crashed siblings
 * never thundering-herd their restarts yet every run of the same
 * history restarts at the same instants.
 *
 * @param base_ms             First-crash delay (<=0 treated as 1).
 * @param max_ms              Cap on the result.
 * @param consecutive_crashes 1 for the first crash since the last
 *                            healthy spell; resets on a clean run.
 * @param worker              Worker index (jitter stream).
 */
std::int64_t restartBackoffMs(std::int64_t base_ms, std::int64_t max_ms,
                              std::uint64_t consecutive_crashes,
                              std::size_t worker);

/** See the file comment. */
class Supervisor
{
  public:
    explicit Supervisor(SupervisorConfig config);
    ~Supervisor();

    Supervisor(const Supervisor &) = delete;
    Supervisor &operator=(const Supervisor &) = delete;

    /**
     * Bind, fork the workers and supervise until shutdown.
     * Call once; blocks for the life of the service.
     *
     * @return The process exit code (see the file comment).
     * @throws FatalError when the socket or the shared block cannot
     *         be created.
     */
    int run();

  private:
    struct Impl;
    Impl *impl_;
};

} // namespace ujam

#endif // UJAM_SERVICE_SUPERVISOR_HH
