/**
 * @file
 * A thin blocking client for the ujam-serve socket.
 *
 * One connection, one request frame out, one response frame back --
 * exactly the shape the CLI's client mode and the server smoke tests
 * need. connect() retries briefly so a test can start a server and a
 * client concurrently without an external readiness handshake.
 *
 * requestWithRetry() reconnects and resends when the connection dies
 * mid-request. That is safe to do blindly because every response is
 * a pure function of its request (see protocol.hh) and the service's
 * result cache is content-addressed: a request the dying worker had
 * already computed is answered byte-identically on the retry, so a
 * worker crash costs a client latency, never a different answer.
 */

#ifndef UJAM_SERVICE_CLIENT_HH
#define UJAM_SERVICE_CLIENT_HH

#include <string>

namespace ujam
{

/** See the file comment. */
class ServeClient
{
  public:
    ServeClient() = default;
    ~ServeClient();

    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;

    /**
     * Connect to a listening ujam-serve socket.
     *
     * @param socket_path The server's Unix-domain-socket path.
     * @param retry_ms    Keep retrying for this long before failing
     *                    (covers a server still binding, or a listen
     *                    backlog that is full).
     * @return True once connected.
     */
    bool connect(const std::string &socket_path, int retry_ms = 2000);

    /** @return True while the connection is usable. */
    bool connected() const { return fd_ >= 0; }

    /**
     * Send one request frame and read one response frame.
     *
     * @param line       A request without the trailing newline.
     * @param timeout_ms Give up (and close the connection, so a
     *                   retry starts clean) when no response arrives
     *                   within this many ms; <= 0 blocks forever.
     * @return The response without its newline, or "" on a dead
     *         connection (e.g. its worker crashed or reaped it as
     *         idle) or an expired timeout.
     */
    std::string request(const std::string &line, int timeout_ms = 0);

    /**
     * request(), but reconnect and resend when the connection dies
     * or a response deadline expires (idempotent retry; see the file
     * comment for why that is safe). The per-attempt timeout is what
     * makes the retry loop live: without it, one request swallowed
     * by a dying worker would block the caller forever instead of
     * being resent to the worker's replacement.
     *
     * @param line       A request without the trailing newline.
     * @param attempts   Total tries, including the first (>= 1).
     * @param timeout_ms Per-attempt response deadline; <= 0 blocks.
     * @return The response, or "" once every attempt failed.
     */
    std::string requestWithRetry(const std::string &line,
                                 int attempts = 3,
                                 int timeout_ms = 10000);

    /** Close the connection (idempotent). */
    void close();

  private:
    int fd_ = -1;
    std::string buffer_;     //!< bytes read past the last frame
    std::string socketPath_; //!< remembered for reconnects
};

} // namespace ujam

#endif // UJAM_SERVICE_CLIENT_HH
