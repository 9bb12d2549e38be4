/**
 * @file
 * Supervision-tree tests (ctest -L serve-robust): worker crash
 * containment under concurrent clients, the crash-loop circuit
 * breaker into degraded cache-only mode, SIGTERM and shutdown-frame
 * draining, the restart-backoff and crash-window helpers, and two
 * exec-based tests of the real ujam-serve binary: one kill -9s a
 * worker mid-service, one SIGTERMs `--socket` run without
 * `--workers`.
 *
 * The in-process tests fork() a Supervisor from the test binary.
 * That is safe here -- and only here -- because the supervisor is
 * single-threaded until it stops forking, and the test process
 * spawns no threads before the fork.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "service/supervisor.hh"
#include "support/json.hh"

namespace ujam
{
namespace
{

const char *kSource = R"(
param n = 16
real a(n, n)
real b(n, n)
do j = 1, n
  do i = 1, n
    a(i, j) = a(i, j) + b(j, i)
  end do
end do
)";

std::string
scratchDir(const std::string &tag)
{
    return testing::TempDir() + "ujam-sup-" + tag + "-" +
           std::to_string(getpid());
}

std::string
socketPath(const std::string &tag)
{
    return "/tmp/ujam-sup-" + tag + "-" + std::to_string(getpid()) +
           ".sock";
}

std::string
optimizeLine(const std::string &id, int max_unroll = 0)
{
    JsonWriter json;
    json.beginObject();
    json.field("op", "optimize");
    json.field("id", id);
    json.field("source", kSource);
    if (max_unroll > 0) {
        json.key("options")
            .beginObject()
            .field("max_unroll", static_cast<std::int64_t>(max_unroll))
            .endObject();
    }
    json.endObject();
    return json.str();
}

std::string
responseStatus(const std::string &frame)
{
    JsonParseResult parsed = parseJson(frame);
    if (!parsed.ok() || !parsed.value->isObject())
        return "<unparseable>";
    const JsonValue *status = parsed.value->find("status");
    return status && status->isString() ? status->stringValue
                                        : "<unparseable>";
}

/** Run a Supervisor in a forked child; its exit code is run()'s. */
pid_t
startSupervisor(const SupervisorConfig &config)
{
    pid_t pid = ::fork();
    if (pid == 0) {
        try {
            Supervisor supervisor(config);
            ::_exit(supervisor.run());
        } catch (...) {
            ::_exit(2);
        }
    }
    return pid;
}

int
waitForExit(pid_t pid)
{
    int status = 0;
    ::waitpid(pid, &status, 0);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
}

/** Fetch and parse the supervisor section of the metrics document. */
SupervisorStats
fetchSupervisorStats(const std::string &socket_path)
{
    ServeClient client;
    SupervisorStats stats;
    if (!client.connect(socket_path))
        return stats;
    std::string response =
        client.requestWithRetry("{\"op\": \"metrics\"}", 5);
    JsonParseResult parsed = parseJson(response);
    if (!parsed.ok())
        return stats;
    const JsonValue *result = parsed.value->find("result");
    const JsonValue *sup = result ? result->find("supervisor") : nullptr;
    if (!sup)
        return stats;
    stats.workersConfigured = static_cast<std::uint64_t>(
        *sup->find("workers_configured")->asInt());
    stats.workersAlive = static_cast<std::uint64_t>(
        *sup->find("workers_alive")->asInt());
    stats.restartsTotal = static_cast<std::uint64_t>(
        *sup->find("restarts_total")->asInt());
    stats.crashesTotal = static_cast<std::uint64_t>(
        *sup->find("crashes_total")->asInt());
    const JsonValue *degraded = sup->find("degraded");
    stats.degraded = degraded && degraded->isBool() &&
                     degraded->boolValue;
    return stats;
}

void
shutdownService(const std::string &socket_path)
{
    ServeClient closer;
    if (closer.connect(socket_path))
        closer.request("{\"op\": \"shutdown\"}");
}

// --- pure helpers ---------------------------------------------------

TEST(SupervisorBackoff, DeterministicExponentialAndBounded)
{
    // Same history, same delay -- restart schedules are reproducible.
    EXPECT_EQ(restartBackoffMs(50, 5000, 1, 0),
              restartBackoffMs(50, 5000, 1, 0));

    // Exponential growth up to the cap, jitter included.
    std::int64_t previous = 0;
    for (std::uint64_t crash = 1; crash <= 12; ++crash) {
        std::int64_t delay = restartBackoffMs(50, 5000, crash, 3);
        EXPECT_GE(delay, previous / 2) << crash; // monotone-ish base
        EXPECT_LE(delay, 5000) << crash;
        EXPECT_GE(delay, 50) << crash;
        previous = delay;
    }
    EXPECT_EQ(restartBackoffMs(50, 5000, 30, 1), 5000);

    // Sibling workers get different jitter for the same crash count.
    bool differs = false;
    for (std::size_t worker = 1; worker < 8 && !differs; ++worker)
        differs = restartBackoffMs(50, 5000, 3, worker) !=
                  restartBackoffMs(50, 5000, 3, 0);
    EXPECT_TRUE(differs);

    // Degenerate knobs stay sane.
    EXPECT_GE(restartBackoffMs(0, 0, 1, 0), 1);
    EXPECT_LE(restartBackoffMs(100, 10, 5, 0), 100);
}

TEST(SupervisorBackoff, CrashWindowTripsOnlyInsideTheWindow)
{
    CrashWindow window(3, 1000);
    EXPECT_FALSE(window.recordCrash(0));
    EXPECT_FALSE(window.recordCrash(100));
    EXPECT_FALSE(window.recordCrash(200));
    EXPECT_EQ(window.inWindow(200), 3u);
    // The fourth crash inside the window trips the breaker.
    EXPECT_TRUE(window.recordCrash(300));

    // Spread far enough apart, crashes never accumulate.
    CrashWindow slow(3, 1000);
    for (std::int64_t at = 0; at < 10000; at += 2000)
        EXPECT_FALSE(slow.recordCrash(at));
    EXPECT_EQ(slow.inWindow(8000), 1u);
    EXPECT_EQ(slow.inWindow(10000), 0u);
}

// --- crash containment (the acceptance scenario) --------------------

TEST(SupervisorRobust, WorkerCrashLosesOnlyItsConnections)
{
    std::string dir = scratchDir("crash");
    std::string sock = socketPath("crash");

    // Reference answers from an unsupervised, fault-free server.
    std::vector<std::string> lines;
    for (int i = 1; i <= 4; ++i)
        lines.push_back(optimizeLine("req", i));
    std::vector<std::string> expected;
    {
        ServerConfig reference;
        reference.cacheDir = dir + "-reference";
        reference.workerFaults = std::vector<ProcessFaultSpec>{};
        UjamServer server(std::move(reference));
        for (const std::string &line : lines)
            expected.push_back(server.processLine(line));
    }

    SupervisorConfig config;
    config.socketPath = sock;
    config.server.cacheDir = dir;
    config.server.threads = 2;
    // A worker is SIGKILLed while serving its second request -- once
    // per slot per service lifetime (the ordinal counts in shared
    // memory). Shared accept does not pick workers, so the spec names
    // none: a client's connection carries its requests to one worker,
    // so at least one crash happens, and at most 4 stay under the
    // breaker's default limit of 5.
    config.server.workerFaults = std::vector<ProcessFaultSpec>{
        parseProcessFaultSpecs("worker_crash:2").front()};
    config.workers = 4;
    config.backoffBaseMs = 10;
    config.backoffMaxMs = 100;
    pid_t supervisor = startSupervisor(config);
    ASSERT_GT(supervisor, 0);

    // Four concurrent clients, each sending every request. The one
    // whose worker dies mid-batch reconnects and resends; everyone
    // must end up with the reference bytes.
    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
        clients.emplace_back([&] {
            ServeClient client;
            if (!client.connect(sock, 5000)) {
                mismatches.fetch_add(100);
                return;
            }
            for (std::size_t i = 0; i < lines.size(); ++i) {
                std::string response =
                    client.requestWithRetry(lines[i], 10);
                if (response != expected[i])
                    mismatches.fetch_add(1);
            }
        });
    }
    for (std::thread &client : clients)
        client.join();
    EXPECT_EQ(mismatches.load(), 0);

    // The crashes happened, were contained, and every slot came back.
    auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    SupervisorStats stats;
    while (std::chrono::steady_clock::now() < give_up) {
        stats = fetchSupervisorStats(sock);
        if (stats.crashesTotal >= 1 && stats.workersAlive == 4 &&
            stats.restartsTotal >= stats.crashesTotal)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    EXPECT_GE(stats.crashesTotal, 1u);
    EXPECT_LE(stats.crashesTotal, 4u);
    EXPECT_GE(stats.restartsTotal, stats.crashesTotal);
    EXPECT_EQ(stats.workersAlive, 4u);
    EXPECT_FALSE(stats.degraded);

    shutdownService(sock);
    EXPECT_EQ(waitForExit(supervisor), 0);
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(dir + "-reference");
}

TEST(SupervisorRobust, CrashLoopTripsBreakerIntoCacheOnlyMode)
{
    std::string dir = scratchDir("breaker");
    std::string sock = socketPath("breaker");
    std::string cached_line = optimizeLine("warm");

    // Pre-populate the persistent cache with one answer.
    std::string expected;
    {
        ServerConfig warm;
        warm.cacheDir = dir;
        warm.workerFaults = std::vector<ProcessFaultSpec>{};
        UjamServer server(std::move(warm));
        expected = server.processLine(cached_line);
        ASSERT_EQ(responseStatus(expected), "ok");
    }

    SupervisorConfig config;
    config.socketPath = sock;
    config.server.cacheDir = dir;
    config.server.threads = 1;
    // Every pipeline request kills its worker: a reproducible crash.
    config.server.workerFaults = std::vector<ProcessFaultSpec>{
        parseProcessFaultSpecs("worker_crash").front()};
    config.workers = 2;
    config.breakerCrashes = 2;
    config.breakerWindowMs = 30000;
    config.backoffBaseMs = 5;
    config.backoffMaxMs = 20;
    config.drainMs = 2000;
    pid_t supervisor = startSupervisor(config);
    ASSERT_GT(supervisor, 0);

    // Hammer until the breaker trips and "degraded" frames appear.
    auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    bool degraded_seen = false;
    int attempt = 0;
    while (!degraded_seen &&
           std::chrono::steady_clock::now() < give_up) {
        ServeClient client;
        if (!client.connect(sock, 2000)) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
            continue;
        }
        std::string line =
            optimizeLine("miss-" + std::to_string(attempt++), 2);
        std::string response = client.requestWithRetry(line, 2);
        if (responseStatus(response) == "degraded")
            degraded_seen = true;
    }
    ASSERT_TRUE(degraded_seen);

    // Cached answers survive degradation byte-identically; nothing
    // new is computed; the metrics say why.
    ServeClient client;
    ASSERT_TRUE(client.connect(sock, 2000));
    EXPECT_EQ(client.requestWithRetry(cached_line, 5), expected);
    SupervisorStats stats = fetchSupervisorStats(sock);
    EXPECT_TRUE(stats.degraded);
    EXPECT_GE(stats.crashesTotal, 3u);
    client.close();

    shutdownService(sock);
    EXPECT_EQ(waitForExit(supervisor), kExitDegraded);
    std::filesystem::remove_all(dir);
}

// --- shutdown paths -------------------------------------------------

TEST(SupervisorRobust, SigtermDrainsEveryWorker)
{
    std::string sock = socketPath("sigterm");
    SupervisorConfig config;
    config.socketPath = sock;
    config.server.threads = 1;
    config.server.workerFaults = std::vector<ProcessFaultSpec>{};
    config.workers = 3;
    config.drainMs = 5000;
    pid_t supervisor = startSupervisor(config);
    ASSERT_GT(supervisor, 0);

    ServeClient client;
    ASSERT_TRUE(client.connect(sock, 5000));
    ASSERT_EQ(responseStatus(client.request("{\"op\": \"ping\"}")),
              "ok");
    client.close();

    ::kill(supervisor, SIGTERM);
    EXPECT_EQ(waitForExit(supervisor), 0);
    EXPECT_FALSE(std::filesystem::exists(sock));
}

TEST(SupervisorRobust, ShutdownFrameDrainsTheWholeService)
{
    std::string sock = socketPath("shutdown");
    SupervisorConfig config;
    config.socketPath = sock;
    config.server.threads = 1;
    config.server.workerFaults = std::vector<ProcessFaultSpec>{};
    config.workers = 3;
    pid_t supervisor = startSupervisor(config);
    ASSERT_GT(supervisor, 0);

    ServeClient client;
    ASSERT_TRUE(client.connect(sock, 5000));
    EXPECT_EQ(responseStatus(client.request("{\"op\": \"shutdown\"}")),
              "ok");
    client.close();
    EXPECT_EQ(waitForExit(supervisor), 0);
}

// --- the real binary: SIGTERM and a real kill -9 ------------------

#ifdef UJAM_SERVE_BIN
TEST(SupervisorRobust, SocketModeWithoutWorkersDrainsOnSigterm)
{
    // `--socket` alone runs one supervised worker, so SIGTERM drains
    // it like any supervised service: exit 0, socket file removed.
    std::string sock = socketPath("plain");

    pid_t server = ::fork();
    ASSERT_GE(server, 0);
    if (server == 0) {
        ::execl(UJAM_SERVE_BIN, UJAM_SERVE_BIN, "--socket",
                sock.c_str(), "--threads", "2",
                static_cast<char *>(nullptr));
        ::_exit(127);
    }

    // No ASSERT before the kill: a failed ping must not leave the
    // server running.
    ServeClient client;
    EXPECT_TRUE(client.connect(sock, 5000));
    EXPECT_EQ(responseStatus(client.request("{\"op\": \"ping\"}")),
              "ok");
    client.close();

    ::kill(server, SIGTERM);
    EXPECT_EQ(waitForExit(server), 0);
    EXPECT_FALSE(std::filesystem::exists(sock));
    std::filesystem::remove(sock);
}

TEST(SupervisorRobust, ExternalSigkillOfRealWorkerIsContained)
{
    std::string dir = scratchDir("extkill");
    std::string sock = socketPath("extkill");

    pid_t supervisor = ::fork();
    ASSERT_GE(supervisor, 0);
    if (supervisor == 0) {
        ::execl(UJAM_SERVE_BIN, UJAM_SERVE_BIN, "--socket",
                sock.c_str(), "--workers", "4", "--cache-dir",
                dir.c_str(), "--threads", "1", "--backoff-base-ms",
                "10", static_cast<char *>(nullptr));
        ::_exit(127);
    }

    ServeClient client;
    ASSERT_TRUE(client.connect(sock, 5000));
    ASSERT_EQ(responseStatus(client.request("{\"op\": \"ping\"}")),
              "ok");
    client.close();

    // Find one worker: a child of the supervisor.
    pid_t worker = -1;
    auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (worker < 0 && std::chrono::steady_clock::now() < give_up) {
        for (const auto &entry :
             std::filesystem::directory_iterator("/proc")) {
            std::string name = entry.path().filename();
            if (name.find_first_not_of("0123456789") !=
                std::string::npos)
                continue;
            std::ifstream stat(entry.path() / "stat");
            std::string token;
            pid_t pid = 0, ppid = 0;
            stat >> pid >> token >> token >> ppid;
            if (ppid == supervisor) {
                worker = pid;
                break;
            }
        }
        if (worker < 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
    }
    ASSERT_GT(worker, 0) << "no worker child found";

    ::kill(worker, SIGKILL);

    // Service keeps answering and the slot is re-forked.
    give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    SupervisorStats stats;
    while (std::chrono::steady_clock::now() < give_up) {
        stats = fetchSupervisorStats(sock);
        if (stats.restartsTotal >= 1 && stats.workersAlive == 4)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    EXPECT_GE(stats.restartsTotal, 1u);
    EXPECT_EQ(stats.workersAlive, 4u);
    EXPECT_GE(stats.crashesTotal, 1u);

    shutdownService(sock);
    EXPECT_EQ(waitForExit(supervisor), 0);
    std::filesystem::remove_all(dir);
}
#endif // UJAM_SERVE_BIN

} // namespace
} // namespace ujam
