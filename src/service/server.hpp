#pragma once
// Socket transports for the experiment service: a long-running daemon loop
// (SocketServer, used by examples/vlcsa_serve.cpp) and the matching client
// connection (ServiceClient, used by examples/vlcsa_client.cpp,
// examples/vlcsa_loadgen.cpp and the tests).  Framing is the same
// newline-delimited JSON as the --stdio transport: one request object per
// line in, one response object per line out, any number of requests per
// connection.
//
// One SocketServer can listen on several transports at once — any mix of
// Unix-domain sockets and TCP endpoints (ListenerSpec) — all feeding the
// same accept loop, worker pool and ExperimentService, so a daemon started
// with --socket and --tcp serves both from one cache.
//
// The server keeps a warm pool of worker threads: accepted connections queue
// onto the pool, each worker converses with its connection until the peer
// hangs up, and experiment runs inside a request reuse the sharded engine
// (service.hpp).  When the pending queue is full (Options::max_pending) a
// new connection is answered with one "overloaded"-coded error line and
// closed instead of queueing unboundedly.  A "shutdown" request answers the
// requester, then stops the accept loop and drains the pool.
//
// A "drain" request (or begin_drain(), the signal handler's entry point)
// stops the daemon *gracefully*: listeners close immediately, open
// conversations keep being served — new runs inside them answer a
// "draining"-coded error — and the server waits for in-flight runs to
// finish.  At Options::drain_ms past the drain start, still-running work is
// cancelled (those runs answer "draining" too) and remaining conversations
// are read-half-closed so keep-alive clients move on; serve() then returns
// "" exactly like a clean shutdown.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "service/fleet.hpp"
#include "service/service.hpp"

namespace vlcsa::service {

/// One endpoint the server listens on.
struct ListenerSpec {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;  // kUnix: filesystem socket path
  std::string host;  // kTcp: bind address (e.g. "127.0.0.1")
  int port = 0;      // kTcp: port; 0 = ephemeral (see SocketServer::tcp_port)

  static ListenerSpec unix_socket(std::string socket_path) {
    ListenerSpec spec;
    spec.kind = Kind::kUnix;
    spec.path = std::move(socket_path);
    return spec;
  }
  static ListenerSpec tcp(std::string bind_host, int bind_port) {
    ListenerSpec spec;
    spec.kind = Kind::kTcp;
    spec.host = std::move(bind_host);
    spec.port = bind_port;
    return spec;
  }
};

class SocketServer {
 public:
  /// The longest request line a conversation may send, newline excluded.
  /// A longer line is answered with one "bad-request" error and the
  /// connection is closed, so one peer cannot grow a worker's buffer
  /// without bound.  Sized for the largest requests the repo's clients
  /// send: a vlcsa_sweep run-batch chunk of its maximum 4096 cells is under
  /// 600 KB.
  static constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

  struct Options {
    int workers = 2;        // warm connection pool size (clamped to >= 1)
    int max_pending = 128;  // reject when this many fds await a worker; 0 = unbounded
    int max_requests_per_conn = 0;  // close a conversation after this many; 0 = unbounded
    int idle_timeout_ms = 0;        // close a conversation idle this long; 0 = never
    int drain_ms = 30000;  // drain deadline: cancel still-running work after this
  };

  SocketServer(std::vector<ListenerSpec> listeners, ExperimentService& service,
               Options options);
  SocketServer(std::vector<ListenerSpec> listeners, ExperimentService& service);

  /// Convenience: a single Unix-socket listener (the historical shape).
  SocketServer(std::string socket_path, ExperimentService& service, int workers = 2);

  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds and listens on every configured endpoint (unlinking stale Unix
  /// sockets first).  Returns "" on success, else the error.
  [[nodiscard]] std::string listen_or_error();

  /// Runs the accept loop until a shutdown request (or request_stop) and
  /// drains the worker pool.  Returns "" on a clean stop, else the error.
  [[nodiscard]] std::string serve();

  /// Thread-safe external stop (e.g. from a signal handler's helper thread).
  void request_stop();

  /// Thread-safe graceful stop (idempotent; a no-op once stopping): flips
  /// the service into drain mode and makes serve() run the drain sequence
  /// described in the header comment.  SIGTERM handlers call this.
  void begin_drain();

  /// First Unix listener's path ("" when serving TCP only).
  [[nodiscard]] std::string socket_path() const;

  /// First TCP listener's bound port after listen_or_error() — resolves an
  /// ephemeral port request (port 0) to the real port.  0 when no TCP
  /// listener is configured.
  [[nodiscard]] int tcp_port() const { return tcp_port_; }

  /// Accepted connections currently awaiting a worker (tests use this to
  /// drive the backlog-rejection path deterministically).
  [[nodiscard]] std::size_t pending_connections();

 private:
  void worker_loop();
  void handle_connection(int fd);

  std::vector<ListenerSpec> listeners_;
  ExperimentService& service_;
  Options options_;
  std::vector<int> listen_fds_;  // parallel to listeners_; -1 = not bound
  int tcp_port_ = 0;

  std::mutex mutex_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;  // accepted fds awaiting a worker
  std::vector<int> active_;  // fds currently conversing with a worker
  bool stopping_ = false;
  bool draining_ = false;    // graceful drain under way (see begin_drain)
  std::chrono::steady_clock::time_point drain_start_{};
};

/// One client connection speaking the line protocol, over either transport.
class ServiceClient {
 public:
  ServiceClient() = default;
  ~ServiceClient();

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  /// Connects to a Unix socket, retrying until `timeout_ms` elapses (covers
  /// the daemon's startup race in scripts: start vlcsa_serve &, connect
  /// immediately).  Returns "" on success, else the error.
  [[nodiscard]] std::string connect_or_error(const std::string& socket_path,
                                             int timeout_ms = 0);

  /// Connects to a TCP endpoint, with the same startup-race retry loop.
  /// Returns "" on success, else the error.
  [[nodiscard]] std::string connect_tcp_or_error(const std::string& host, int port,
                                                 int timeout_ms = 0);

  /// Arms an I/O deadline on the connected socket (SO_RCVTIMEO/SO_SNDTIMEO):
  /// a roundtrip blocked longer than this on a silent server fails with a
  /// "timed out" error instead of hanging forever.  0 disarms.  Returns ""
  /// on success, else the error.
  [[nodiscard]] std::string set_io_timeout_ms(int timeout_ms);

  /// Sends one request line and reads one response line (without trailing
  /// newline) into `response`.  Returns "" on success, else the error.
  [[nodiscard]] std::string roundtrip(const std::string& request_line, std::string& response);

  /// Reads one response line without sending anything — what a client does
  /// when the server speaks first, e.g. the one-line "overloaded" rejection
  /// a full-backlog connection receives.  Returns "" on success.
  [[nodiscard]] std::string read_response(std::string& response);

  /// Drops the current connection (if any) and redials the endpoint the last
  /// connect_* call configured, reapplying the I/O timeout.  Works even when
  /// that connect failed — the endpoint is remembered before dialing, so a
  /// client can be pointed at a daemon that is not up yet and retry in.
  [[nodiscard]] std::string reconnect();

  /// roundtrip(), plus fleet-grade resilience: on a transport error, a
  /// refused connection, or an "overloaded"/"draining"-coded error reply,
  /// drops the connection, sleeps one backoff step and retries, up to
  /// `policy.attempts` retries (0 = plain roundtrip).  Each retry increments
  /// `*retries_out` when given.  Returns "" when a response line arrived —
  /// after exhausted retries that line may still be the refusal reply, so
  /// callers inspect `response` as usual; a non-empty return means transport
  /// failure even after retrying.
  [[nodiscard]] std::string roundtrip_with_retry(const std::string& request_line,
                                                 std::string& response,
                                                 const fleet::RetryPolicy& policy,
                                                 std::uint64_t* retries_out = nullptr);

 private:
  enum class Endpoint { kNone, kUnix, kTcp };

  /// Closes fd_ and clears the line buffer (half-received bytes must never
  /// leak into the next connection's framing).
  void close_connection();

  int fd_ = -1;
  std::string buffer_;  // bytes received past the last complete line

  // The last-dialed endpoint, for reconnect()/roundtrip_with_retry.
  Endpoint endpoint_ = Endpoint::kNone;
  std::string unix_path_;
  std::string tcp_host_;
  int tcp_port_ = 0;
  int connect_timeout_ms_ = 0;
  int io_timeout_ms_ = 0;  // reapplied after every reconnect; 0 = none
};

}  // namespace vlcsa::service
