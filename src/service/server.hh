/**
 * @file
 * The ujam-serve server: batch optimization over NDJSON frames.
 *
 * One UjamServer owns the result cache, the metrics and the request
 * execution path (processLine). Two front ends feed it the identical
 * frames:
 *
 *  - runBatch(): read request lines from a stream, answer on another
 *    (stdin/stdout in the CLI). Lines are processed by a private
 *    worker group into index-addressed slots and emitted in input
 *    order, so batch output is bit-identical at every thread count.
 *  - start()/stop(): a Unix-domain socket served by `threads`
 *    identical threads. Each one polls the listener, accepts one
 *    connection when it is free, serves it to the end and goes back
 *    to polling. A connection that finds every thread busy waits in
 *    the kernel's listen backlog -- the only queue -- until a free
 *    thread of this server, or of a sibling worker on the same
 *    listener, takes it. Threads poll with a short timeout so a
 *    graceful stop never hangs on an idle client.
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
 * Multi-process operation (see service/supervisor.hh): a worker
 * server adopts the supervisor's pre-bound listening socket
 * (ServerConfig::listenFd) -- the AF_UNIX analogue of SO_REUSEPORT:
 * every free thread of every worker accepts on the shared,
 * non-blocking fd (see bindListenSocket). Workers
 * record into a shared-memory ServiceMetrics block
 * (ServerConfig::sharedMetrics) so the `metrics` op aggregates
 * service-wide totals from any worker. A server in degraded mode
 * (ServerConfig::degraded, entered by the supervisor's circuit
 * breaker) answers pipeline ops from the cache only and rejects
 * misses with status "degraded" instead of computing.
 */

#ifndef UJAM_SERVICE_SERVER_HH
#define UJAM_SERVICE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
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
    std::string socketPath;      //!< socket mode listen path
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
    /** Adopt this listening socket from bindListenSocket instead of
     * binding socketPath; -1 = bind our own. An adopting server neither
     * closes the fd's last reference semantics nor unlinks the path
     * on stop -- the supervisor owns both. */
    int listenFd = -1;
    /** Cache-only mode: pipeline ops answer from the cache or are
     * rejected with status "degraded"; nothing is computed. */
    bool degraded = false;
    /** Record into this (shared-memory) metrics block instead of a
     * private one, so counters aggregate across workers. */
    ServiceMetrics *sharedMetrics = nullptr;
    /** Renders the supervision section of the metrics document;
     * unset in single-process mode. */
    std::function<SupervisorStats()> supervisorStats;
    /** This worker's index under a supervisor; -1 = single process
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
     * Socket mode: bind, listen and serve until stop().
     * @throws FatalError when the socket cannot be created or bound.
     */
    void start();

    /**
     * Graceful stop: stop accepting, let every thread finish its
     * current frame, join them, unlink the socket. Idempotent; also
     * runs from the destructor.
     */
    void stop();

    /** Block until a shutdown request (or stop()) arrives. */
    void waitForShutdown();

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
        std::chrono::steady_clock::time_point arrival,
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

    int listenFd_ = -1;
    bool ownsListenSocket_ = false; //!< we bound it; unlink on stop

    mutable std::mutex mutex_;
    std::condition_variable stopped_; //!< waitForShutdown
    bool stopRequested_ = false;
    bool started_ = false;
    std::vector<std::thread> threads_; //!< serving threads
};

} // namespace ujam

#endif // UJAM_SERVICE_SERVER_HH
