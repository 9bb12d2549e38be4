/**
 * @file
 * ujam-serve: the batch optimization service.
 *
 *     ujam-serve --batch [OPTIONS]          read NDJSON requests from
 *                                           stdin, answer on stdout
 *     ujam-serve --socket PATH [OPTIONS]    serve a Unix domain socket
 *                                           under the supervisor until
 *                                           a shutdown request or
 *                                           SIGTERM/SIGINT
 *     ujam-serve --client PATH [FILE]       send FILE's (or stdin's)
 *                                           frames to a running server
 *
 * Options:
 *     --threads N        serving threads (0 = one per core); in
 *                        socket mode each accepts its own connections
 *     --cache-dir DIR    persistent result-cache directory
 *     --cache-mem N      in-memory cache entries (default 256)
 *     --cache-max-bytes N  disk-cache byte budget; oldest entries are
 *                          evicted past it (default 0 = unbounded)
 *     --deadline-ms N    default deadline for requests without one
 *     --idle-timeout-ms N  close connections idle this long (0 = off)
 *     --dump-metrics     print the metrics document to stderr on exit
 *                        (socket mode: the supervisor's service-wide
 *                        document, whose cache.memory_entries reads 0)
 *
 * Socket mode (always supervised, see service/supervisor.hh):
 *     --workers N        fork N worker processes (default 1); a crash
 *                        kills only that worker's connections and the
 *                        slot restarts with backoff
 *     --drain-ms N       shutdown drain deadline before SIGKILL
 *     --breaker-crashes N / --breaker-window-ms N
 *                        > N crashes inside the window degrade the
 *                        service to cache-only answers
 *     --backoff-base-ms N / --backoff-max-ms N
 *                        worker restart backoff envelope
 *
 * Client mode:
 *     --retries N        resend a frame up to N times when the
 *                        connection dies mid-request (default 3;
 *                        idempotent, see service/client.hh)
 *
 * See service/protocol.hh for the wire format. Exit status: 0 on a
 * clean run, 2 on usage or startup errors; socket mode exits 3 after
 * degrading to cache-only mode and 4 when shutdown had to SIGKILL a
 * straggling worker.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>

#include "service/client.hh"
#include "service/server.hh"
#include "service/supervisor.hh"
#include "support/diagnostics.hh"
#include "support/string_utils.hh"

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "usage: ujam-serve --batch | --socket PATH | --client PATH "
        "[FILE]\n"
        "       [--threads N] [--cache-dir DIR]\n"
        "       [--cache-mem N] [--cache-max-bytes N]\n"
        "       [--deadline-ms N] [--idle-timeout-ms N] "
        "[--dump-metrics]\n"
        "       [--workers N (default 1)] [--drain-ms N]\n"
        "       [--breaker-crashes N] [--breaker-window-ms N]\n"
        "       [--backoff-base-ms N] [--backoff-max-ms N] "
        "[--retries N]\n");
}

/** --client: stream frames from `in` to a running server. */
int
runClient(const std::string &socket_path, std::istream &in,
          int retries)
{
    ujam::ServeClient client;
    if (!client.connect(socket_path)) {
        std::fprintf(stderr, "ujam-serve: cannot connect to '%s'\n",
                     socket_path.c_str());
        return 2;
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::string response = client.requestWithRetry(line, retries);
        if (response.empty()) {
            std::fprintf(stderr,
                         "ujam-serve: server closed the connection\n");
            return 2;
        }
        std::printf("%s\n", response.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ujam;

    enum class Mode
    {
        None,
        Batch,
        Socket,
        Client
    };

    Mode mode = Mode::None;
    ServerConfig config;
    SupervisorConfig supervision;
    std::string socket_path;
    std::string client_file;
    bool dump_metrics = false;
    int retries = 3;

    // Numeric flags read strictly: the whole argument, non-negative,
    // in range of its field. A bad value is a usage error.
    bool bad_value = false;
    auto count = [&bad_value](const char *text, auto &field) {
        if (!parseCount(text, field))
            bad_value = true;
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--batch") == 0) {
            mode = Mode::Batch;
        } else if (std::strcmp(arg, "--socket") == 0 && i + 1 < argc) {
            mode = Mode::Socket;
            socket_path = argv[++i];
        } else if (std::strcmp(arg, "--client") == 0 && i + 1 < argc) {
            mode = Mode::Client;
            socket_path = argv[++i];
        } else if (std::strcmp(arg, "--threads") == 0 && i + 1 < argc) {
            count(argv[++i], config.threads);
        } else if (std::strcmp(arg, "--cache-dir") == 0 &&
                   i + 1 < argc) {
            config.cacheDir = argv[++i];
        } else if (std::strcmp(arg, "--cache-mem") == 0 &&
                   i + 1 < argc) {
            count(argv[++i], config.cacheMemEntries);
        } else if (std::strcmp(arg, "--cache-max-bytes") == 0 &&
                   i + 1 < argc) {
            count(argv[++i], config.cacheMaxBytes);
        } else if (std::strcmp(arg, "--deadline-ms") == 0 &&
                   i + 1 < argc) {
            count(argv[++i], config.defaultDeadlineMs.emplace());
        } else if (std::strcmp(arg, "--idle-timeout-ms") == 0 &&
                   i + 1 < argc) {
            count(argv[++i], config.idleTimeoutMs);
        } else if (std::strcmp(arg, "--workers") == 0 && i + 1 < argc) {
            count(argv[++i], supervision.workers);
        } else if (std::strcmp(arg, "--drain-ms") == 0 &&
                   i + 1 < argc) {
            count(argv[++i], supervision.drainMs);
        } else if (std::strcmp(arg, "--breaker-crashes") == 0 &&
                   i + 1 < argc) {
            count(argv[++i], supervision.breakerCrashes);
        } else if (std::strcmp(arg, "--breaker-window-ms") == 0 &&
                   i + 1 < argc) {
            count(argv[++i], supervision.breakerWindowMs);
        } else if (std::strcmp(arg, "--backoff-base-ms") == 0 &&
                   i + 1 < argc) {
            count(argv[++i], supervision.backoffBaseMs);
        } else if (std::strcmp(arg, "--backoff-max-ms") == 0 &&
                   i + 1 < argc) {
            count(argv[++i], supervision.backoffMaxMs);
        } else if (std::strcmp(arg, "--retries") == 0 && i + 1 < argc) {
            count(argv[++i], retries);
        } else if (std::strcmp(arg, "--dump-metrics") == 0) {
            dump_metrics = true;
        } else if (arg[0] == '-') {
            usage();
            return 2;
        } else if (mode == Mode::Client && client_file.empty()) {
            client_file = arg;
        } else {
            usage();
            return 2;
        }
        if (bad_value) {
            usage();
            return 2;
        }
    }

    if (mode == Mode::None) {
        usage();
        return 2;
    }

    if (mode == Mode::Client) {
        if (client_file.empty())
            return runClient(socket_path, std::cin, retries);
        std::ifstream in(client_file);
        if (!in) {
            std::fprintf(stderr, "ujam-serve: cannot open '%s'\n",
                         client_file.c_str());
            return 2;
        }
        return runClient(socket_path, in, retries);
    }

    if (mode == Mode::Socket) {
        supervision.socketPath = socket_path;
        supervision.server = std::move(config);
        supervision.dumpMetrics = dump_metrics;
        try {
            Supervisor supervisor(std::move(supervision));
            return supervisor.run();
        } catch (const FatalError &err) {
            std::fprintf(stderr, "%s\n", err.what());
            return 2;
        }
    }

    try {
        UjamServer server(std::move(config));
        server.runBatch(std::cin, std::cout);
        if (dump_metrics) {
            std::fprintf(stderr, "%s\n",
                         server.metricsSnapshot().c_str());
        }
    } catch (const FatalError &err) {
        std::fprintf(stderr, "%s\n", err.what());
        return 2;
    }
    return 0;
}
