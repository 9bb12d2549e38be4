#include "service/client.hh"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace ujam
{

ServeClient::~ServeClient()
{
    close();
}

void
ServeClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    buffer_.clear();
}

bool
ServeClient::connect(const std::string &socket_path, int retry_ms)
{
    close();

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path))
        return false;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);

    auto give_up =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(retry_ms);
    while (true) {
        // Non-blocking, so a full listen backlog fails at once with
        // EAGAIN and is retried like a missing socket: a blocking
        // connect would sleep until some server thread accepts,
        // however long that takes.
        int fd = ::socket(AF_UNIX,
                          SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
        if (fd < 0)
            return false;
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0) {
            // request() relies on blocking send and recv.
            int flags = ::fcntl(fd, F_GETFL);
            if (flags < 0 ||
                ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) != 0) {
                ::close(fd);
                return false;
            }
            fd_ = fd;
            socketPath_ = socket_path;
            return true;
        }
        ::close(fd);
        if (std::chrono::steady_clock::now() >= give_up)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
}

std::string
ServeClient::request(const std::string &line, int timeout_ms)
{
    if (fd_ < 0)
        return "";

    std::string frame = line + "\n";
    std::size_t sent = 0;
    while (sent < frame.size()) {
        ssize_t n = ::send(fd_, frame.data() + sent,
                           frame.size() - sent, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            close();
            return "";
        }
        sent += static_cast<std::size_t>(n);
    }

    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    char chunk[64 * 1024];
    while (true) {
        std::size_t newline = buffer_.find('\n');
        if (newline != std::string::npos) {
            std::string response = buffer_.substr(0, newline);
            buffer_.erase(0, newline + 1);
            return response;
        }
        if (timeout_ms > 0) {
            auto left = std::chrono::duration_cast<
                            std::chrono::milliseconds>(
                            deadline -
                            std::chrono::steady_clock::now())
                            .count();
            if (left <= 0) {
                // The frame may still be answered later; the
                // connection's framing is now ambiguous, so drop it
                // rather than misattribute a late response.
                close();
                return "";
            }
            pollfd poller{fd_, POLLIN, 0};
            int ready =
                ::poll(&poller, 1, static_cast<int>(
                                       std::min<long long>(left, 100)));
            if (ready < 0 && errno != EINTR) {
                close();
                return "";
            }
            if (ready <= 0)
                continue;
        }
        ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            close();
            return "";
        }
        buffer_.append(chunk, static_cast<std::size_t>(n));
    }
}

std::string
ServeClient::requestWithRetry(const std::string &line, int attempts,
                              int timeout_ms)
{
    std::string path = socketPath_;
    for (int attempt = 0; attempt < std::max(attempts, 1); ++attempt) {
        if (!connected()) {
            if (path.empty() || !connect(path))
                continue;
        }
        std::string response = request(line, timeout_ms);
        if (!response.empty())
            return response;
        // The connection died under us (worker crash, idle reap)
        // or the response deadline expired. Back off briefly so a
        // restarting worker can come up, then reconnect and resend.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return "";
}

} // namespace ujam
