/**
 * @file
 * Driving the real ujam-serve binary: launch, closed-loop load and
 * teardown.
 *
 * The service runs supervised (`--workers 2`) in its own process
 * group. The benchmark process is a child subreaper, so a worker the
 * supervisor leaves behind is reparented to it and still reaped;
 * nothing the benchmark starts outlives it.
 */

#ifndef UJAM_PERFBENCH_SERVE_LOAD_HH
#define UJAM_PERFBENCH_SERVE_LOAD_HH

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench
{

/** One supervised ujam-serve instance. */
class ServiceProcess
{
  public:
    /**
     * @param binary    Path of the ujam-serve executable.
     * @param socket    Socket path (relative to the working directory).
     * @param log       File the service's stdout/stderr go to.
     */
    ServiceProcess(std::string binary, std::string socket, std::string log);
    ~ServiceProcess();

    ServiceProcess(const ServiceProcess &) = delete;
    ServiceProcess &operator=(const ServiceProcess &) = delete;

    /** Launch and wait until a ping is answered. @return success. */
    bool start();

    /** @return CPU seconds (user + system) of the live processes. */
    double cpuSeconds() const;

    /** @return The largest VmHWM, in MiB, of the live processes. */
    double peakRssMb() const;

    /**
     * Shut down (SIGTERM, drain) and reap every process.
     * @return True when the shutdown had to kill a process: the
     *         service exited with its forced-kill code, or did not
     *         exit in time and its process group was SIGKILLed.
     */
    bool stop();

    const std::string &socket() const { return socket_; }

  private:
    std::vector<pid_t> processes() const;

    std::string binary_;
    std::string socket_;
    std::string log_;
    pid_t pid_ = -1;
};

/** Make this process a child subreaper (call once, first thing). */
void becomeSubreaper();

/**
 * Run a program to completion with its output discarded.
 * @return Its exit status, or -1 when it could not be started.
 */
int runToExit(const std::vector<std::string> &argv);

/** One request as the client saw it. */
struct ClientSample
{
    std::uint64_t index = 0;  //!< request index in the workload stream
    int connection = 0;       //!< which client connection sent it
    double latencyMs = 0;     //!< send to full response
    double doneMs = 0;        //!< response time since the window opened
    std::string response;     //!< "" when the connection failed
};

/**
 * Closed-loop load: `connections` clients, each sending its next
 * request only after the previous response arrived, until `seconds`
 * have passed. Request indices are handed out in order from one
 * counter, so the set of requests sent is a prefix of the stream.
 *
 * @param frame  Builds request `index` (called before timing it).
 * @param handle Consumes each finished sample (may move the
 *               response out); runs on the client's thread.
 * @return Wall seconds from the first send to the last response.
 */
double runClosedLoop(const std::string &socket, int connections,
                     double seconds,
                     const std::function<std::string(std::uint64_t)> &frame,
                     const std::function<void(ClientSample &)> &handle);

} // namespace perfbench

#endif // UJAM_PERFBENCH_SERVE_LOAD_HH
