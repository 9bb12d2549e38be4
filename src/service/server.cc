#include "service/server.hh"

#include <csignal>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <istream>
#include <ostream>

#include "ir/validate.hh"
#include "parser/parser.hh"
#include "report/report.hh"
#include "support/diagnostics.hh"
#include "support/json.hh"
#include "support/thread_pool.hh"

namespace ujam
{

namespace
{

using Clock = std::chrono::steady_clock;

std::uint64_t
microsSince(Clock::time_point start)
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - start)
        .count();
}

/** Write all of text to fd, ignoring SIGPIPE-worthy failures. */
void
writeAll(int fd, const std::string &text)
{
    std::size_t sent = 0;
    while (sent < text.size()) {
        ssize_t n = ::send(fd, text.data() + sent, text.size() - sent,
                           MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue; // a signal is not a dead peer
        if (n <= 0)
            return; // client went away; nothing to salvage
        sent += static_cast<std::size_t>(n);
    }
}

/**
 * @return The process-level fault specs this worker should honour: a
 * worker_crash spec whose arg names a worker index applies only to
 * that worker; everything else applies everywhere.
 */
std::vector<ProcessFaultSpec>
faultsForWorker(const std::vector<ProcessFaultSpec> &specs,
                int worker_index)
{
    int self = worker_index < 0 ? 0 : worker_index;
    std::vector<ProcessFaultSpec> mine;
    for (const ProcessFaultSpec &spec : specs) {
        if (spec.kind == ProcessFaultKind::WorkerCrash && spec.arg &&
            *spec.arg != self)
            continue;
        mine.push_back(spec);
    }
    return mine;
}

ResultCacheConfig
cacheConfigFor(const ServerConfig &config, ServiceMetrics &metrics,
               const std::vector<ProcessFaultSpec> &faults)
{
    ResultCacheConfig cache;
    cache.memoryCapacity = config.cacheMemEntries;
    cache.diskDir = config.cacheDir;
    cache.maxDiskBytes = config.cacheMaxBytes;
    cache.counters = &metrics.cacheCounters;
    cache.faults = faults;
    return cache;
}

} // namespace

int
bindListenSocket(const std::string &path)
{
    if (path.empty())
        fatal("ujam-serve: no socket path configured");

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        fatal("ujam-serve: socket path too long: ", path);
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);

    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK,
                      0);
    if (fd < 0)
        fatal("ujam-serve: socket(): ", std::strerror(errno));

    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        std::string reason = std::strerror(errno);
        ::close(fd);
        fatal("ujam-serve: bind(", path, "): ", reason);
    }
    if (::listen(fd, 128) != 0) {
        std::string reason = std::strerror(errno);
        ::close(fd);
        fatal("ujam-serve: listen(): ", reason);
    }
    return fd;
}

UjamServer::UjamServer(ServerConfig config)
    : config_(std::move(config)),
      metrics_(config_.sharedMetrics ? *config_.sharedMetrics
                                     : ownedMetrics_),
      cache_(cacheConfigFor(
          config_, metrics_,
          config_.workerFaults ? *config_.workerFaults
                               : processFaultSpecsFromEnv())),
      workerFaults_(faultsForWorker(
          config_.workerFaults ? *config_.workerFaults
                               : processFaultSpecsFromEnv(),
          config_.workerIndex))
{
    if (config_.threads == 0)
        config_.threads = defaultThreads();
}

UjamServer::~UjamServer()
{
    stop();
}

std::string
UjamServer::metricsSnapshot() const
{
    CacheStats cache;
    cache.memoryEntries = cache_.memoryEntries();
    cache.memoryCapacity = cache_.memoryCapacity();
    if (config_.supervisorStats) {
        SupervisorStats supervisor = config_.supervisorStats();
        return metricsJson(metrics_, cache, &supervisor);
    }
    return metricsJson(metrics_, cache);
}

bool
UjamServer::stopping() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stopRequested_;
}

void
UjamServer::requestStop()
{
    std::lock_guard<std::mutex> lock(mutex_);
    stopRequested_ = true;
}

// --- request execution -----------------------------------------------------

void
UjamServer::applyWorkerFaults(std::uint64_t serial)
{
    for (const ProcessFaultSpec &spec : workerFaults_) {
        if (!spec.matches(serial))
            continue;
        switch (spec.kind) {
          case ProcessFaultKind::WorkerCrash:
            // The real thing, not an exception: the safety net under
            // test is the *supervisor*, so die the way a segfaulting
            // or OOM-killed worker dies -- uncatchably, mid-request.
            ::kill(::getpid(), SIGKILL);
            break;
          case ProcessFaultKind::WorkerHang:
            std::this_thread::sleep_for(std::chrono::milliseconds(
                spec.arg.value_or(3600000)));
            break;
          case ProcessFaultKind::SlowResponse:
            std::this_thread::sleep_for(
                std::chrono::milliseconds(spec.arg.value_or(100)));
            break;
          case ProcessFaultKind::CacheCorrupt:
            break; // the cache owns this one
        }
    }
}

std::string
UjamServer::runOptimize(const ServiceRequest &request,
                        Clock::time_point deadline, bool has_deadline)
{
    const char *op_name = serviceOpName(request.op);
    std::atomic<std::uint64_t> &serial_source =
        config_.faultSerial ? *config_.faultSerial : requestSerial_;
    std::uint64_t serial =
        serial_source.fetch_add(1, std::memory_order_relaxed) + 1;
    applyWorkerFaults(serial);
    PipelineConfig config = request.config;
    // The server parallelizes across requests; one request's nest
    // fan-out stays serial so requests never oversubscribe the host.
    config.threads = 1;

    // Environment-injected fault specs change pipeline behavior, so
    // they must be part of the cache key; resolving them here keeps
    // computeCacheKey a pure function of its arguments. A malformed
    // spec must surface as an error frame, never as an exception
    // escaping into a worker thread.
    try {
        for (FaultSpec &spec : faultSpecsFromEnv())
            config.safety.faults.push_back(std::move(spec));
    } catch (const FatalError &err) {
        metrics_.requestsError.add();
        return errorResponse(request.id, op_name, "error", err.what());
    }

    // Parse + structural validation.
    Clock::time_point parse_start = Clock::now();
    Program program;
    try {
        program = parseProgram(request.source,
                               request.scenarioName.empty()
                                   ? "<request>"
                                   : "scenario:" + request.scenarioName);
        std::vector<std::string> problems = validateProgram(program);
        if (!problems.empty()) {
            metrics_.parseLatency.record(microsSince(parse_start));
            metrics_.requestsError.add();
            return errorResponse(request.id, op_name, "error",
                                 "invalid program: " +
                                     problems.front());
        }
    } catch (const FatalError &err) {
        metrics_.parseLatency.record(microsSince(parse_start));
        metrics_.requestsError.add();
        return errorResponse(request.id, op_name, "error", err.what());
    }
    metrics_.parseLatency.record(microsSince(parse_start));

    if (has_deadline && Clock::now() > deadline) {
        metrics_.requestsTimeout.add();
        return errorResponse(request.id, op_name, "timeout",
                             "deadline expired after parse");
    }

    // Cache probe on the canonical (IR, machine, config, codegen)
    // key. The codegen fields are defaults for optimize/lint, so
    // they render identically for every request of those ops. In
    // degraded (cache-only) mode the probe is mandatory: a hit is
    // still a correct, byte-identical answer, but nothing new is
    // computed on a circuit-broken service.
    std::string key;
    if (!request.noCache || config_.degraded) {
        Clock::time_point probe_start = Clock::now();
        key = computeCacheKey(op_name, program, request.machine,
                              config, request.codegen, request.tune);
        CacheTier tier = CacheTier::Miss;
        std::optional<std::string> hit = cache_.get(key, &tier);
        metrics_.cacheProbeLatency.record(microsSince(probe_start));
        if (hit) {
            if (tier == CacheTier::Memory)
                metrics_.cacheMemoryHits.add();
            else
                metrics_.cacheDiskHits.add();
            if (request.op == ServiceOp::Tune)
                metrics_.tuneCacheHits.add();
            metrics_.requestsOk.add();
            return okResponse(request.id, op_name, *hit);
        }
        metrics_.cacheMisses.add();
    } else {
        metrics_.cacheBypassed.add();
    }

    if (config_.degraded) {
        metrics_.requestsDegraded.add();
        return errorResponse(request.id, op_name, "degraded",
                             "service degraded: cache-only mode, "
                             "result not cached");
    }

    // Run the pipeline (or the analyzer alone for "lint").
    Clock::time_point run_start = Clock::now();
    std::string result_json;
    bool cacheable = true;
    try {
        if (request.op == ServiceOp::Tune) {
            metrics_.tuneRequests.add();
            TuneConfig tune = request.tune;
            tune.pipeline = config;
            TuneResult tuned =
                tuneProgram(program, request.machine, tune);
            metrics_.optimizeLatency.record(microsSince(run_start));

            std::size_t measured = 0;
            for (const NestTune &nest : tuned.nests)
                measured += nest.measuredCount;
            metrics_.tuneCandidatesMeasured.add(measured);
            // A self-skipped run (wall mode, no host compiler) is a
            // property of this worker's environment, not of the
            // request; caching it would serve the skip to clients on
            // hosts that could measure.
            cacheable = !tuned.skipped;

            Clock::time_point render_start = Clock::now();
            result_json = tuneResultJson(tuned, tune);
            metrics_.renderLatency.record(microsSince(render_start));
        } else if (request.op == ServiceOp::Lint) {
            LintResult lint = lintProgram(program, request.machine,
                                          config.lintOptions);
            metrics_.optimizeLatency.record(microsSince(run_start));

            Clock::time_point render_start = Clock::now();
            result_json = lintResultJson(lint);
            metrics_.renderLatency.record(microsSince(render_start));
        } else {
            // optimize and codegen both run the whole pipeline.
            PipelineResult result =
                optimizeProgram(program, request.machine, config);
            metrics_.optimizeLatency.record(microsSince(run_start));

            metrics_.nestsOptimized.add(result.outcomes.size());
            metrics_.containedFaults.add(result.containedFaults());
            for (const NestOutcome &outcome : result.outcomes) {
                if (outcome.lintSkipped)
                    metrics_.lintRejections.add();
            }

            Clock::time_point render_start = Clock::now();
            if (request.op == ServiceOp::Codegen) {
                CodegenOptions emit = request.codegen;
                emit.variantLabel = "original";
                CodegenUnit original = emitCProgram(program, emit);
                emit.variantLabel = "transformed";
                CodegenUnit transformed =
                    emitCProgram(result.program, emit);
                result_json = codegenResultJson(result, original,
                                                transformed,
                                                request.codegen.seed);
            } else {
                result_json = pipelineResultJson(result);
            }
            metrics_.renderLatency.record(microsSince(render_start));
        }
    } catch (const FatalError &err) {
        metrics_.requestsError.add();
        return errorResponse(request.id, op_name, "error", err.what());
    } catch (const PanicError &err) {
        metrics_.requestsError.add();
        return errorResponse(request.id, op_name, "error", err.what());
    }

    if (has_deadline && Clock::now() > deadline) {
        // The work is done but the client stopped caring; the result
        // still lands in the cache so the retry is free.
        if (!request.noCache && cacheable) {
            cache_.put(key, result_json);
            metrics_.cacheStores.add();
        }
        metrics_.requestsTimeout.add();
        return errorResponse(request.id, op_name, "timeout",
                             "deadline expired during optimization");
    }

    if (!request.noCache && cacheable) {
        cache_.put(key, result_json);
        metrics_.cacheStores.add();
    }
    metrics_.requestsOk.add();
    return okResponse(request.id, op_name, result_json);
}

std::string
UjamServer::process(const ServiceRequest &request,
                    Clock::time_point arrival)
{
    const char *op_name = serviceOpName(request.op);
    std::optional<std::int64_t> deadline_ms = request.deadlineMs;
    if (!deadline_ms)
        deadline_ms = config_.defaultDeadlineMs;
    bool has_deadline = deadline_ms.has_value();
    Clock::time_point deadline =
        has_deadline
            ? arrival + std::chrono::milliseconds(*deadline_ms)
            : Clock::time_point::max();

    if (has_deadline && Clock::now() > deadline) {
        metrics_.requestsTimeout.add();
        return errorResponse(request.id, op_name, "timeout",
                             "deadline expired before processing");
    }

    switch (request.op) {
      case ServiceOp::Ping: {
        metrics_.requestsOk.add();
        JsonWriter json;
        json.beginObject().field("pong", true).endObject();
        return okResponse(request.id, op_name, json.str());
      }
      case ServiceOp::Metrics:
        // A live gauge, deliberately uncacheable and volatile.
        metrics_.requestsOk.add();
        return okResponse(request.id, op_name, metricsSnapshot());
      case ServiceOp::Shutdown: {
        metrics_.requestsOk.add();
        JsonWriter json;
        json.beginObject().field("stopping", true).endObject();
        std::string response =
            okResponse(request.id, op_name, json.str());
        requestStop();
        return response;
      }
      case ServiceOp::Optimize:
      case ServiceOp::Lint:
      case ServiceOp::Codegen:
      case ServiceOp::Tune:
        return runOptimize(request, deadline, has_deadline);
    }
    metrics_.requestsError.add();
    return errorResponse(request.id, op_name, "error", "unhandled op");
}

std::string
UjamServer::processLine(const std::string &line,
                        Clock::time_point arrival)
{
    metrics_.requestsTotal.add();
    std::string response;
    RequestParse parsed = parseRequest(line);
    if (!parsed.ok()) {
        metrics_.requestsError.add();
        switch (parsed.kind) {
          case RequestErrorKind::Malformed:
            metrics_.requestsMalformed.add();
            break;
          case RequestErrorKind::BadOp:
            metrics_.requestsBadOp.add();
            break;
          case RequestErrorKind::BadField:
            metrics_.requestsBadField.add();
            break;
          case RequestErrorKind::None:
            break;
        }
        response = errorResponse("", "", "error", parsed.error);
    } else {
        switch (parsed.request->op) {
          case ServiceOp::Optimize:
            metrics_.opOptimize.add();
            break;
          case ServiceOp::Lint:
            metrics_.opLint.add();
            break;
          case ServiceOp::Codegen:
            metrics_.opCodegen.add();
            break;
          case ServiceOp::Tune:
            metrics_.opTune.add();
            break;
          case ServiceOp::Metrics:
            metrics_.opMetrics.add();
            break;
          case ServiceOp::Ping:
            metrics_.opPing.add();
            break;
          case ServiceOp::Shutdown:
            metrics_.opShutdown.add();
            break;
        }
        response = process(*parsed.request, arrival);
    }
    metrics_.totalLatency.record(microsSince(arrival));
    return response;
}

std::string
UjamServer::processLine(const std::string &line)
{
    return processLine(line, Clock::now());
}

// --- batch front end -------------------------------------------------------

std::size_t
UjamServer::runBatch(std::istream &in, std::ostream &out)
{
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty())
            lines.push_back(line);
    }

    // Index-addressed slots: output order is input order at every
    // width.
    std::vector<std::string> responses(lines.size());
    parallelFor(lines.size(), config_.threads, [&](std::size_t i) {
        responses[i] = processLine(lines[i]);
    });

    for (const std::string &response : responses)
        out << response << "\n";
    out.flush();
    return lines.size();
}

// --- socket front end ------------------------------------------------------

void
UjamServer::start()
{
    // Writing to a client that vanished must be an error return in
    // writeAll, never a process-killing SIGPIPE.
    ::signal(SIGPIPE, SIG_IGN);
    UJAM_ASSERT(config_.listenFd >= 0, "no listening socket to serve");

    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopRequested_ = false;
    }
    for (std::size_t t = 0; t < config_.threads; ++t)
        threads_.emplace_back([this] { serveLoop(); });
}

void
UjamServer::serveLoop()
{
    // A thread accepts only when it is free, so a connection no
    // thread can serve yet stays in the listen backlog, where a free
    // thread of any worker on the listener can take it.
    while (!stopping()) {
        pollfd poller{config_.listenFd, POLLIN, 0};
        int ready = ::poll(&poller, 1, 100);
        if (ready <= 0)
            continue; // timeout, EINTR or transient error: re-check
        int fd = ::accept4(config_.listenFd, nullptr, nullptr,
                           SOCK_CLOEXEC);
        if (fd < 0)
            continue; // EAGAIN (another thread won it), EINTR, ECONNABORTED
        handleConnection(fd);
    }
}

void
UjamServer::handleConnection(int fd)
{
    constexpr std::size_t kMaxBuffered = 9u << 20;
    std::string buffer;
    char chunk[64 * 1024];

    // Belt (SO_RCVTIMEO caps any blocking read the kernel sees) and
    // braces (the poll loop below tracks idleness explicitly): a
    // stalled client cannot pin this thread forever.
    if (config_.idleTimeoutMs > 0) {
        timeval timeout{};
        timeout.tv_sec = config_.idleTimeoutMs / 1000;
        timeout.tv_usec = (config_.idleTimeoutMs % 1000) * 1000;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof(timeout));
    }
    Clock::time_point last_activity = Clock::now();

    while (true) {
        // Serve every complete frame currently buffered.
        std::size_t newline;
        while ((newline = buffer.find('\n')) != std::string::npos) {
            std::string line = buffer.substr(0, newline);
            buffer.erase(0, newline + 1);
            if (line.empty())
                continue;
            writeAll(fd, processLine(line) + "\n");
            last_activity = Clock::now();
        }
        if (stopping())
            break; // graceful: current frames done, no new reads

        pollfd poller{fd, POLLIN, 0};
        int ready = ::poll(&poller, 1, 200);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (ready == 0) {
            if (config_.idleTimeoutMs > 0 &&
                Clock::now() - last_activity >
                    std::chrono::milliseconds(config_.idleTimeoutMs)) {
                metrics_.connectionsIdleClosed.add();
                writeAll(fd,
                         errorResponse("", "", "error",
                                       "idle timeout") +
                             "\n");
                break;
            }
            continue; // timeout: re-check stopping()
        }
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0 && (errno == EINTR || errno == EAGAIN ||
                      errno == EWOULDBLOCK))
            continue; // interrupted or SO_RCVTIMEO tick: re-poll
        if (n <= 0)
            break; // EOF or error
        last_activity = Clock::now();
        buffer.append(chunk, static_cast<std::size_t>(n));
        if (buffer.size() > kMaxBuffered) {
            metrics_.requestsTotal.add();
            metrics_.requestsError.add();
            metrics_.requestsMalformed.add();
            writeAll(fd,
                     errorResponse("", "", "error",
                                   "frame larger than 8 MiB") +
                         "\n");
            break;
        }
    }
    ::close(fd);
}

void
UjamServer::stop()
{
    requestStop();
    for (std::thread &thread : threads_) {
        if (thread.joinable())
            thread.join();
    }
    threads_.clear();
}

} // namespace ujam
