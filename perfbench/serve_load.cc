#include "serve_load.hh"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "service/client.hh"

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** @return The /proc/<pid>/stat fields after the command name. */
std::vector<std::string>
statFields(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::vector<std::string> fields;
    std::size_t close = text.rfind(')');
    if (close == std::string::npos)
        return fields;
    std::istringstream rest(text.substr(close + 1));
    std::string field;
    while (rest >> field)
        fields.push_back(field);
    return fields; // fields[0] is the state (field 3 of stat)
}

} // namespace

void
becomeSubreaper()
{
    ::prctl(PR_SET_CHILD_SUBREAPER, 1);
}

int
runToExit(const std::vector<std::string> &argv)
{
    std::vector<char *> args;
    for (const std::string &arg : argv)
        args.push_back(const_cast<char *>(arg.c_str()));
    args.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    ::posix_spawn_file_actions_init(&actions);
    ::posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY,
                                       0);
    ::posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY,
                                       0);
    pid_t pid = -1;
    int spawned = ::posix_spawn(&pid, args[0], &actions, nullptr,
                                args.data(), environ);
    ::posix_spawn_file_actions_destroy(&actions);
    if (spawned != 0)
        return -1;
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

ServiceProcess::ServiceProcess(std::string binary, std::string socket,
                               std::string log)
    : binary_(std::move(binary)), socket_(std::move(socket)),
      log_(std::move(log))
{
}

ServiceProcess::~ServiceProcess()
{
    stop();
}

bool
ServiceProcess::start()
{
    ::unlink(socket_.c_str());
    std::vector<std::string> args = {binary_,     "--socket",   socket_,
                                     "--workers", "2",          "--threads",
                                     "2",         "--drain-ms", "500"};
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);

    pid_ = ::fork();
    if (pid_ < 0)
        return false;
    if (pid_ == 0) {
        ::setpgid(0, 0);
        int null_fd = ::open("/dev/null", O_RDONLY);
        int log_fd = ::open(log_.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                            0644);
        if (null_fd >= 0)
            ::dup2(null_fd, 0);
        if (log_fd >= 0) {
            ::dup2(log_fd, 1);
            ::dup2(log_fd, 2);
        }
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    ::setpgid(pid_, pid_);

    ujam::ServeClient client;
    if (!client.connect(socket_, 20000))
        return false;
    std::string pong = client.request(R"({"op": "ping"})", 20000);
    return pong.find("\"pong\": true") != std::string::npos;
}

std::vector<pid_t>
ServiceProcess::processes() const
{
    std::vector<pid_t> out;
    if (pid_ <= 0)
        return out;
    out.push_back(pid_);
    DIR *proc = ::opendir("/proc");
    if (!proc)
        return out;
    while (dirent *entry = ::readdir(proc)) {
        pid_t pid = static_cast<pid_t>(std::atol(entry->d_name));
        if (pid <= 0 || pid == pid_)
            continue;
        std::vector<std::string> fields = statFields(pid);
        // fields[1] is the parent pid.
        if (fields.size() > 1 && std::atol(fields[1].c_str()) == pid_)
            out.push_back(pid);
    }
    ::closedir(proc);
    return out;
}

double
ServiceProcess::cpuSeconds() const
{
    double ticks = 0;
    for (pid_t pid : processes()) {
        std::vector<std::string> fields = statFields(pid);
        // utime and stime are stat fields 14 and 15.
        if (fields.size() > 12)
            ticks += std::atof(fields[11].c_str()) +
                     std::atof(fields[12].c_str());
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double
ServiceProcess::peakRssMb() const
{
    double peak_kb = 0;
    for (pid_t pid : processes()) {
        std::ifstream in("/proc/" + std::to_string(pid) + "/status");
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind("VmHWM:", 0) == 0)
                peak_kb = std::max(peak_kb, std::atof(line.c_str() + 6));
        }
    }
    return peak_kb / 1024.0;
}

bool
ServiceProcess::stop()
{
    if (pid_ <= 0)
        return false;
    bool forced = false;
    ::kill(pid_, SIGTERM);
    Clock::time_point start = Clock::now();
    int status = 0;
    pid_t done = 0;
    while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
           msSince(start) < 3000)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (done == 0) {
        forced = true;
        ::killpg(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
    } else if (WIFEXITED(status) && WEXITSTATUS(status) == 4) {
        forced = true; // the supervisor SIGKILLed a straggling worker
    }
    // Workers orphaned by the supervisor were reparented to this
    // subreaper; kill and reap whatever is left of the group.
    ::killpg(pid_, SIGKILL);
    while (::waitpid(-pid_, &status, 0) > 0) {
    }
    ::unlink(socket_.c_str());
    pid_ = -1;
    return forced;
}

double
runClosedLoop(const std::string &socket, int connections, double seconds,
              const std::function<std::string(std::uint64_t)> &frame,
              const std::function<void(ClientSample &)> &handle)
{
    std::atomic<std::uint64_t> next{0};
    Clock::time_point start = Clock::now();
    Clock::time_point stop_at =
        start + std::chrono::microseconds(
                    static_cast<std::int64_t>(seconds * 1e6));
    auto client_loop = [&](int connection) {
        ujam::ServeClient client;
        client.connect(socket, 5000);
        while (Clock::now() < stop_at) {
            ClientSample sample;
            sample.index = next.fetch_add(1);
            sample.connection = connection;
            std::string line = frame(sample.index);
            if (!client.connected())
                client.connect(socket, 5000);
            Clock::time_point sent = Clock::now();
            sample.response = client.request(line, 120000);
            sample.latencyMs = msSince(sent);
            sample.doneMs = msSince(start);
            handle(sample);
        }
    };
    std::vector<std::thread> clients;
    for (int c = 0; c < connections; ++c)
        clients.emplace_back(client_loop, c);
    for (std::thread &thread : clients)
        thread.join();
    return msSince(start) / 1000.0;
}

} // namespace perfbench
