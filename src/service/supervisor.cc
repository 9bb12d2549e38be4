#include "service/supervisor.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <iostream>
#include <memory>
#include <new>
#include <vector>

#include <poll.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "service/metrics.hh"
#include "support/diagnostics.hh"
#include "support/rng.hh"

namespace ujam
{

namespace
{

std::int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One worker's history in the shared block (atomics only). */
struct WorkerSlotShared
{
    std::atomic<std::uint64_t> restarts{0};
    std::atomic<std::uint64_t> crashes{0};
    std::atomic<std::uint64_t> alive{0};
    std::atomic<std::int64_t> lastExitCode{0};
    std::atomic<std::int64_t> lastSignal{0};
    /** Pipeline requests across every incarnation of this slot, so
     * fault ordinals count service lifetime, not process lifetime
     * (a worker_crash fault must not re-fire after the restart). */
    std::atomic<std::uint64_t> faultSerial{0};
};

/**
 * Everything the workers and the supervisor count, in one anonymous
 * MAP_SHARED mapping created before the first fork. Flat relaxed
 * atomics only -- no pointers, no locks -- so concurrent updates from
 * any number of processes are safe and the `metrics` op on any worker
 * sees service-wide totals.
 */
struct SharedBlock
{
    ServiceMetrics metrics;
    std::array<WorkerSlotShared, kMaxWorkers> workers;
    std::atomic<std::uint64_t> workersConfigured{0};
    std::atomic<std::uint64_t> restartsTotal{0};
    std::atomic<std::uint64_t> crashesTotal{0};
    std::atomic<std::uint64_t> degraded{0};
    std::atomic<std::uint64_t> degradedTransitions{0};
    std::atomic<std::uint64_t> forcedKills{0};
};

SupervisorStats
statsFromShared(const SharedBlock &shared)
{
    SupervisorStats stats;
    std::size_t configured = static_cast<std::size_t>(
        shared.workersConfigured.load(std::memory_order_relaxed));
    configured = std::min(configured, kMaxWorkers);
    stats.workersConfigured = configured;
    stats.restartsTotal =
        shared.restartsTotal.load(std::memory_order_relaxed);
    stats.crashesTotal =
        shared.crashesTotal.load(std::memory_order_relaxed);
    stats.degraded =
        shared.degraded.load(std::memory_order_relaxed) != 0;
    stats.degradedTransitions =
        shared.degradedTransitions.load(std::memory_order_relaxed);
    stats.forcedKills =
        shared.forcedKills.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < configured; ++i) {
        const WorkerSlotShared &slot = shared.workers[i];
        WorkerStats worker;
        worker.restarts = slot.restarts.load(std::memory_order_relaxed);
        worker.crashes = slot.crashes.load(std::memory_order_relaxed);
        worker.alive = slot.alive.load(std::memory_order_relaxed) != 0;
        worker.lastExitCode =
            slot.lastExitCode.load(std::memory_order_relaxed);
        worker.lastSignal =
            slot.lastSignal.load(std::memory_order_relaxed);
        if (worker.alive)
            ++stats.workersAlive;
        stats.workers.push_back(worker);
    }
    return stats;
}

} // namespace

bool
CrashWindow::recordCrash(std::int64_t now_ms)
{
    crashes_.push_back(now_ms);
    while (!crashes_.empty() &&
           crashes_.front() < now_ms - windowMs_)
        crashes_.pop_front();
    return crashes_.size() > limit_;
}

std::size_t
CrashWindow::inWindow(std::int64_t now_ms) const
{
    std::size_t count = 0;
    for (std::int64_t at : crashes_)
        if (at >= now_ms - windowMs_)
            ++count;
    return count;
}

std::int64_t
restartBackoffMs(std::int64_t base_ms, std::int64_t max_ms,
                 std::uint64_t consecutive_crashes, std::size_t worker)
{
    if (base_ms <= 0)
        base_ms = 1;
    if (max_ms < base_ms)
        max_ms = base_ms;
    if (consecutive_crashes == 0)
        consecutive_crashes = 1;

    std::int64_t delay = base_ms;
    std::uint64_t doublings = std::min<std::uint64_t>(
        consecutive_crashes - 1, 62);
    for (std::uint64_t i = 0; i < doublings && delay < max_ms; ++i)
        delay = std::min<std::int64_t>(delay * 2, max_ms);

    // Jitter spreads sibling restarts without sacrificing
    // reproducibility: the stream depends only on (worker, crash
    // count), never on wall-clock state.
    Rng rng(Rng::deriveStream(0x756A616D5355504Bull + worker,
                              consecutive_crashes));
    std::int64_t jitter =
        delay > 1 ? rng.range(0, delay / 2) : 0;
    return std::min<std::int64_t>(delay + jitter, max_ms);
}

// --- the supervisor proper -------------------------------------------------

struct Supervisor::Impl
{
    explicit Impl(SupervisorConfig config_in)
        : config(std::move(config_in)),
          window(config.breakerCrashes, config.breakerWindowMs)
    {
    }

    ~Impl()
    {
        if (listenFd >= 0)
            ::close(listenFd);
        if (shared) {
            shared->~SharedBlock();
            ::munmap(shared, sizeof(SharedBlock));
        }
    }

    struct Slot
    {
        pid_t pid = -1;
        std::uint64_t consecutiveCrashes = 0;
        std::int64_t restartDueMs = -1; //!< -1 = no restart pending
        std::int64_t spawnedAtMs = 0;
    };

    SupervisorConfig config;
    CrashWindow window;
    SharedBlock *shared = nullptr;
    int listenFd = -1;
    std::vector<Slot> slots;
    sigset_t mask{};
    bool terminating = false;
    bool degradeRequested = false;
    bool degraded = false;
    std::int64_t drainDeadlineMs = -1;
    std::unique_ptr<UjamServer> degradedServer;

    int run();
    void mapShared();
    void spawn(std::size_t index);
    int runWorker(std::size_t index);
    void reap(std::int64_t now);
    void maybeRestart(std::int64_t now);
    void beginShutdown(std::int64_t now);
    void forceKillStragglers();
    bool consumePendingSignals();
    void enterDegradedMode();
    int runDegraded();

    std::size_t
    liveWorkers() const
    {
        std::size_t live = 0;
        for (const Slot &slot : slots)
            if (slot.pid >= 0)
                ++live;
        return live;
    }

    int
    finalExitCode() const
    {
        if (shared->forcedKills.load(std::memory_order_relaxed) > 0)
            return kExitForcedKill;
        if (degraded)
            return kExitDegraded;
        return 0;
    }
};

void
Supervisor::Impl::mapShared()
{
    void *mem =
        ::mmap(nullptr, sizeof(SharedBlock), PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED)
        fatal("ujam-serve: mmap(shared metrics): ",
              std::strerror(errno));
    shared = new (mem) SharedBlock();
}

void
Supervisor::Impl::spawn(std::size_t index)
{
    Slot &slot = slots[index];
    pid_t pid = ::fork();
    if (pid < 0) {
        // Treat like an immediate crash: retry after backoff.
        slot.restartDueMs =
            nowMs() + restartBackoffMs(config.backoffBaseMs,
                                       config.backoffMaxMs,
                                       ++slot.consecutiveCrashes,
                                       index);
        return;
    }
    if (pid == 0)
        ::_exit(runWorker(index));

    slot.pid = pid;
    slot.restartDueMs = -1;
    slot.spawnedAtMs = nowMs();
    shared->workers[index].alive.store(1, std::memory_order_relaxed);
}

int
Supervisor::Impl::runWorker(std::size_t index)
{
#ifdef __linux__
    // Die with the supervisor instead of orphaning: a killed
    // supervisor must not leave workers squatting on the socket.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
#endif

    ServerConfig server = config.server;
    server.listenFd = listenFd;
    server.sharedMetrics = &shared->metrics;
    server.workerIndex = static_cast<int>(index);
    server.faultSerial = &shared->workers[index].faultSerial;
    SharedBlock *block = shared;
    server.supervisorStats = [block] { return statsFromShared(*block); };

    try {
        UjamServer worker(std::move(server));
        worker.start();
        // SIGTERM/SIGINT are blocked (inherited mask), so we take
        // them synchronously here -- no handlers, no races.
        sigset_t wanted;
        sigemptyset(&wanted);
        sigaddset(&wanted, SIGTERM);
        sigaddset(&wanted, SIGINT);
        timespec tick{0, 100 * 1000 * 1000};
        while (!worker.stopping()) {
            int sig = ::sigtimedwait(&wanted, nullptr, &tick);
            if (sig == SIGTERM || sig == SIGINT)
                break;
        }
        worker.stop();
    } catch (const std::exception &err) {
        std::cerr << "ujam-serve[worker " << index
                  << "]: " << err.what() << "\n";
        return 1;
    }
    return 0;
}

void
Supervisor::Impl::reap(std::int64_t now)
{
    int status = 0;
    pid_t pid;
    while ((pid = ::waitpid(-1, &status, WNOHANG)) > 0) {
        auto it = std::find_if(
            slots.begin(), slots.end(),
            [pid](const Slot &slot) { return slot.pid == pid; });
        if (it == slots.end())
            continue;
        std::size_t index =
            static_cast<std::size_t>(it - slots.begin());
        Slot &slot = *it;
        slot.pid = -1;
        WorkerSlotShared &record = shared->workers[index];
        record.alive.store(0, std::memory_order_relaxed);
        record.lastExitCode.store(
            WIFEXITED(status) ? WEXITSTATUS(status) : 0,
            std::memory_order_relaxed);
        record.lastSignal.store(
            WIFSIGNALED(status) ? WTERMSIG(status) : 0,
            std::memory_order_relaxed);

        bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        if (terminating || degraded)
            continue; // expected exits; nothing to restart. In
                      // degraded mode this also covers the drain:
                      // a SIGTERMed worker's clean exit must not
                      // read as a shutdown request, and a final
                      // crash must not schedule a restart.
        if (clean) {
            // A worker that exits 0 unprompted answered a `shutdown`
            // frame: drain the whole service.
            beginShutdown(now);
            continue;
        }

        // Crash. A worker that ran healthily for a full breaker
        // window starts its backoff sequence over.
        if (slot.consecutiveCrashes > 0 &&
            now - slot.spawnedAtMs > config.breakerWindowMs)
            slot.consecutiveCrashes = 0;
        ++slot.consecutiveCrashes;
        record.crashes.fetch_add(1, std::memory_order_relaxed);
        shared->crashesTotal.fetch_add(1, std::memory_order_relaxed);
        if (window.recordCrash(now)) {
            degradeRequested = true;
            continue;
        }
        slot.restartDueMs =
            now + restartBackoffMs(config.backoffBaseMs,
                                   config.backoffMaxMs,
                                   slot.consecutiveCrashes, index);
    }
}

void
Supervisor::Impl::maybeRestart(std::int64_t now)
{
    for (std::size_t i = 0; i < slots.size(); ++i) {
        Slot &slot = slots[i];
        if (slot.pid >= 0 || slot.restartDueMs < 0 ||
            now < slot.restartDueMs)
            continue;
        spawn(i);
        if (slot.pid >= 0) {
            shared->workers[i].restarts.fetch_add(
                1, std::memory_order_relaxed);
            shared->restartsTotal.fetch_add(
                1, std::memory_order_relaxed);
        }
    }
}

void
Supervisor::Impl::beginShutdown(std::int64_t now)
{
    if (terminating)
        return;
    terminating = true;
    drainDeadlineMs = now + std::max<std::int64_t>(config.drainMs, 0);
    for (Slot &slot : slots) {
        if (slot.pid >= 0)
            ::kill(slot.pid, SIGTERM);
        slot.restartDueMs = -1;
    }
}

void
Supervisor::Impl::forceKillStragglers()
{
    for (Slot &slot : slots) {
        if (slot.pid < 0)
            continue;
        ::kill(slot.pid, SIGKILL);
        shared->forcedKills.fetch_add(1, std::memory_order_relaxed);
    }
}

/** @return True when a termination signal arrived. */
bool
Supervisor::Impl::consumePendingSignals()
{
    bool terminate = false;
    while (true) {
        timespec zero{0, 0};
        int sig = ::sigtimedwait(&mask, nullptr, &zero);
        if (sig < 0)
            break;
        if (sig == SIGTERM || sig == SIGINT)
            terminate = true;
        // SIGCHLD only wakes us; reap() runs every iteration anyway.
    }
    return terminate;
}

void
Supervisor::Impl::enterDegradedMode()
{
    degraded = true;
    shared->degraded.store(1, std::memory_order_relaxed);
    shared->degradedTransitions.fetch_add(1,
                                          std::memory_order_relaxed);

    // Stop the survivors (bounded), then serve from the cache alone.
    std::int64_t deadline = nowMs() + config.drainMs;
    for (Slot &slot : slots) {
        if (slot.pid >= 0)
            ::kill(slot.pid, SIGTERM);
        slot.restartDueMs = -1;
    }
    while (liveWorkers() > 0) {
        if (nowMs() >= deadline) {
            forceKillStragglers();
            deadline = nowMs() + 1000; // bounded wait for the KILLs
        }
        ::poll(nullptr, 0, 20);
        reap(nowMs());
    }

    // Only now -- when no further fork can happen -- may the
    // supervisor grow threads.
    ServerConfig server = config.server;
    server.listenFd = listenFd;
    server.degraded = true;
    server.sharedMetrics = &shared->metrics;
    server.workerFaults = std::vector<ProcessFaultSpec>{};
    // Survival mode must not be starvable: handleConnection keeps
    // served connections alive, so one idle client could pin a lone
    // serving thread forever while fresh connections wait in the
    // listen backlog. Cache-only answers are cheap -- give the
    // degraded server at least two threads and always reap idle
    // connections, whatever the template said.
    if (server.threads != 0 && server.threads < 2)
        server.threads = 2;
    if (server.idleTimeoutMs <= 0)
        server.idleTimeoutMs = 1000;
    SharedBlock *block = shared;
    server.supervisorStats = [block] { return statsFromShared(*block); };
    degradedServer = std::make_unique<UjamServer>(std::move(server));
    degradedServer->start();
}

int
Supervisor::Impl::runDegraded()
{
    while (!degradedServer->stopping()) {
        ::poll(nullptr, 0, 100);
        if (consumePendingSignals())
            degradedServer->requestStop();
        reap(nowMs()); // stray SIGKILLed stragglers
    }
    degradedServer->stop();
    degradedServer.reset();
    if (!config.socketPath.empty())
        ::unlink(config.socketPath.c_str());
    return finalExitCode();
}

int
Supervisor::Impl::run()
{
    ::signal(SIGPIPE, SIG_IGN);

    // Take SIGCHLD/SIGTERM/SIGINT synchronously via sigtimedwait:
    // no handlers means nothing async-signal-unsafe can ever run,
    // and the forked children inherit a mask under which their own
    // sigtimedwait works unchanged.
    sigemptyset(&mask);
    sigaddset(&mask, SIGCHLD);
    sigaddset(&mask, SIGTERM);
    sigaddset(&mask, SIGINT);
    ::sigprocmask(SIG_BLOCK, &mask, nullptr);

    mapShared();
    listenFd = bindListenSocket(config.socketPath);

    std::size_t workers = std::max<std::size_t>(config.workers, 1);
    workers = std::min(workers, kMaxWorkers);
    shared->workersConfigured.store(workers,
                                    std::memory_order_relaxed);
    slots.resize(workers);
    for (std::size_t i = 0; i < workers; ++i)
        spawn(i);

    while (true) {
        ::poll(nullptr, 0, 100);

        std::int64_t now = nowMs();
        if (consumePendingSignals())
            beginShutdown(now);
        reap(now);

        if (degradeRequested && !terminating && !degraded) {
            degradeRequested = false;
            enterDegradedMode();
            return runDegraded();
        }

        if (terminating) {
            if (liveWorkers() == 0)
                break;
            if (drainDeadlineMs >= 0 && now >= drainDeadlineMs) {
                forceKillStragglers();
                drainDeadlineMs = now + 1000;
            }
        } else {
            maybeRestart(now);
        }
    }

    ::close(listenFd);
    listenFd = -1;
    if (!config.socketPath.empty())
        ::unlink(config.socketPath.c_str());

    if (config.dumpMetrics) {
        CacheStats cache;
        cache.memoryCapacity = config.server.cacheMemEntries;
        SupervisorStats stats = statsFromShared(*shared);
        std::cerr << metricsJson(shared->metrics, cache, &stats)
                  << "\n";
    }
    return finalExitCode();
}

Supervisor::Supervisor(SupervisorConfig config)
    : impl_(new Impl(std::move(config)))
{
}

Supervisor::~Supervisor()
{
    delete impl_;
}

int
Supervisor::run()
{
    return impl_->run();
}

} // namespace ujam
