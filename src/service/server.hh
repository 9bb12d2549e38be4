/**
 * @file
 * The ujam-serve server: batch optimization over NDJSON frames.
 *
 * One UjamServer owns the result cache, the metrics and the request
 * execution path (processLine). Two front ends feed it the identical
 * frames:
 *
 *  - runBatch(): read request lines from a stream, answer on another
 *    (stdin/stdout in the CLI). Lines run through parallelFor into
 *    index-addressed slots and are emitted in input order, so batch
 *    output is bit-identical at every thread count.
 *  - start()/stop(): serve the listening socket the caller hands in
 *    (ServerConfig::listenFd) with `threads` identical threads. Each
 *    one polls the listener, accepts one connection when it is free,
 *    serves it to the end and goes back to polling. A connection
 *    that finds every thread busy waits in the kernel's listen
 *    backlog -- the only queue -- until a free thread of this
 *    server, or of a sibling worker on the same listener, takes it.
 *    Threads poll with a short timeout so a graceful stop never
 *    hangs on an idle client.
 *
 * Per-request deadlines ("deadline_ms", measured from receipt) are
 * checked at stage boundaries -- receipt, post-parse, post-optimize
 * -- and an expired request answers "timeout". A "shutdown" request
 * begins a graceful stop: no new connections, and every thread exits
 * after its current frame.
 *
 * Requests run the existing pipeline (driver/optimizeProgram, the
 * analyzer for "lint") with per-nest parallelism disabled: the server
 * parallelizes across requests, which keeps every response a pure --
 * and therefore cacheable -- function of its request.
 *
 * Socket serving is always supervised (see service/supervisor.hh):
 * the supervisor binds the listener, and each worker server adopts
 * the pre-bound fd -- the AF_UNIX analogue of SO_REUSEPORT: every
 * free thread of every worker accepts on the shared, non-blocking fd
 * (see bindListenSocket). The server never binds, closes or unlinks
 * a listener; whoever bound it does. Workers record into a
 * shared-memory ServiceMetrics block (ServerConfig::sharedMetrics)
 * so the `metrics` op aggregates service-wide totals from any
 * worker. A server in degraded mode (ServerConfig::degraded, entered
 * by the supervisor's circuit breaker) answers pipeline ops from the
 * cache only and rejects misses with status "degraded" instead of
 * computing.
 */

#ifndef UJAM_SERVICE_SERVER_HH
#define UJAM_SERVICE_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "service/cache.hh"
#include "service/metrics.hh"
#include "service/protocol.hh"
#include "support/fault_injection.hh"

namespace ujam
{

/**
 * Create, bind and listen on the AF_UNIX stream socket at path,
 * replacing any file already there.
 *
 * The socket is non-blocking: when several processes poll one
 * listener, a single connection wakes them all and only one accept
 * wins. The others must get EAGAIN and return to their stop check
 * rather than sleep in accept until the next client arrives.
 * Accepted sockets do not inherit the flag.
 *
 * @return The listening fd (close-on-exec, owned by the caller).
 * @throws FatalError when the path is empty or too long, or the
 *         socket cannot be created, bound or put into listening.
 */
int bindListenSocket(const std::string &path);

/** Server construction knobs. */
struct ServerConfig
{
    /** Socket mode: threads that each accept and serve their own
     * connections. Batch mode: the parallelFor width. 0 = one per
     * core. */
    std::size_t threads = 0;
    /** Deadline applied to requests that do not carry one. */
    std::optional<std::int64_t> defaultDeadlineMs;
    std::size_t cacheMemEntries = 256; //!< in-memory LRU capacity
    std::string cacheDir;        //!< persistent tier; "" = memory only
    /** Disk-tier byte budget; 0 = unbounded. See ResultCache. */
    std::uint64_t cacheMaxBytes = 0;

    /** Close a connection idle for this long; 0 = never. A stalled
     * client must not pin a serving thread forever. */
    std::int64_t idleTimeoutMs = 0;

    // --- multi-process plumbing (set by the supervisor) ---
    /** The listening socket (from bindListenSocket) that start()
     * serves; -1 = none (batch mode). The server never closes it or
     * unlinks its path: whoever bound it owns both. */
    int listenFd = -1;
    /** Cache-only mode: pipeline ops answer from the cache or are
     * rejected with status "degraded"; nothing is computed. */
    bool degraded = false;
    /** Record into this (shared-memory) metrics block instead of a
     * private one, so counters aggregate across workers. */
    ServiceMetrics *sharedMetrics = nullptr;
    /** Renders the supervision section of the metrics document;
     * unset outside a supervisor (batch mode, in-process tests). */
    std::function<SupervisorStats()> supervisorStats;
    /** This worker's index under a supervisor; -1 = outside one
     * (treated as worker 0 for fault-spec filtering). */
    int workerIndex = -1;
    /** Process-level fault specs for this worker. Unset (nullopt) =
     * resolve from UJAM_FAULT; an empty list disables injection. */
    std::optional<std::vector<ProcessFaultSpec>> workerFaults;
    /** Counts pipeline requests for fault ordinals. The supervisor
     * points this at shared memory so the count survives restarts
     * (a worker_crash:N fault then fires exactly once per service
     * lifetime, not once per incarnation); null = a private count. */
    std::atomic<std::uint64_t> *faultSerial = nullptr;
};

/** See the file comment. */
class UjamServer
{
  public:
    explicit UjamServer(ServerConfig config);
    ~UjamServer();

    UjamServer(const UjamServer &) = delete;
    UjamServer &operator=(const UjamServer &) = delete;

    /**
     * Answer one request frame.
     *
     * Thread-safe; never throws. The response has no trailing
     * newline.
     *
     * @param line    The frame.
     * @param arrival When the frame was received (deadline anchor).
     */
    std::string processLine(
        const std::string &line,
        std::chrono::steady_clock::time_point arrival);

    /** processLine anchored at the call instant. */
    std::string processLine(const std::string &line);

    /**
     * Batch mode: one response line per input line, in input order.
     *
     * @return The number of requests processed.
     */
    std::size_t runBatch(std::istream &in, std::ostream &out);

    /**
     * Socket mode: start the threads that serve ServerConfig::listenFd
     * until stop().
     * @pre ServerConfig::listenFd is a listening socket.
     */
    void start();

    /**
     * Graceful stop: stop accepting, let every thread finish its
     * current frame and join them. The listener stays open.
     * Idempotent; also runs from the destructor.
     */
    void stop();

    /** @return True once a stop was requested. */
    bool stopping() const;

    /**
     * Begin a graceful stop without joining (async-signal-unsafe but
     * thread-safe): accepting ends and threads exit after their
     * current frame. Call stop() to join.
     */
    void requestStop();

    const ServiceMetrics &metrics() const { return metrics_; }
    ResultCache &cache() { return cache_; }

    /** @return The metrics document including cache gauges. */
    std::string metricsSnapshot() const;

  private:
    std::string process(const ServiceRequest &request,
                        std::chrono::steady_clock::time_point arrival);
    std::string runOptimize(
        const ServiceRequest &request,
        std::chrono::steady_clock::time_point deadline,
        bool has_deadline);
    /** Fire any worker-level faults matching this request serial. */
    void applyWorkerFaults(std::uint64_t serial);
    void serveLoop();
    void handleConnection(int fd);

    ServerConfig config_;
    ServiceMetrics ownedMetrics_; //!< backing when none is shared
    ServiceMetrics &metrics_;     //!< shared block or ownedMetrics_
    ResultCache cache_;
    std::vector<ProcessFaultSpec> workerFaults_;
    std::atomic<std::uint64_t> requestSerial_{0};

    mutable std::mutex mutex_;
    bool stopRequested_ = false;
    std::vector<std::thread> threads_; //!< serving threads
};

} // namespace ujam

#endif // UJAM_SERVICE_SERVER_HH
