#pragma once
// Socket transports for the experiment service: a long-running daemon loop
// (SocketServer, used by examples/vlcsa_serve.cpp) and the matching client
// connection (ServiceClient, used by examples/vlcsa_client.cpp,
// examples/vlcsa_loadgen.cpp, examples/vlcsa_sweep.cpp and the tests, which
// take their connection flags from ClientFlags).  Framing is the same
// newline-delimited JSON as the --stdio transport: one request object per
// line in, one response object per line out, any number of requests per
// connection.
//
// One SocketServer can listen on several transports at once — any mix of
// Unix-domain sockets and TCP endpoints (Endpoint) — all feeding the
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
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/cli.hpp"
#include "service/fleet.hpp"
#include "service/service.hpp"

namespace vlcsa::service {

/// One daemon endpoint: a Unix-domain socket path or a TCP host:port.  The
/// server listens on a list of them; a client dials one.
struct Endpoint {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;  // kUnix: filesystem socket path
  std::string host;  // kTcp: bind address or host to dial (e.g. "127.0.0.1")
  int port = 0;      // kTcp: port; 0 = ephemeral when listening (see SocketServer::tcp_port)

  static Endpoint unix_socket(std::string socket_path) {
    Endpoint endpoint;
    endpoint.path = std::move(socket_path);
    return endpoint;
  }
  static Endpoint tcp(std::string host, int port) {
    Endpoint endpoint;
    endpoint.kind = Kind::kTcp;
    endpoint.host = std::move(host);
    endpoint.port = port;
    return endpoint;
  }

  /// A TCP endpoint from "HOST:PORT" (harness::parse_host_port); nullopt
  /// when the text is malformed.
  static std::optional<Endpoint> parse_tcp(const std::string& host_port);

  /// "PATH" or "HOST:PORT", as reports and error messages print it.
  [[nodiscard]] std::string describe() const {
    return kind == Kind::kUnix ? path : host + ":" + std::to_string(port);
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

  SocketServer(std::vector<Endpoint> listeners, ExperimentService& service, Options options);
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

  std::vector<Endpoint> listeners_;
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

/// How a ServiceClient reaches its daemon.
struct ClientOptions {
  Endpoint endpoint;
  int connect_timeout_ms = 0;  // keep redialing a refused connect this long; 0 = one try
  int io_timeout_ms = 0;       // SO_RCVTIMEO/SO_SNDTIMEO armed on every dial; 0 = none
  fleet::RetryPolicy retry{};  // roundtrip's retry budget; attempts 0 = no retry
};

/// One client connection speaking the line protocol, over either transport.
/// It dials on demand: the first roundtrip (or connect_or_error) connects,
/// and a roundtrip that lost its connection redials.
class ServiceClient {
 public:
  ServiceClient() = default;
  explicit ServiceClient(ClientOptions options) : options_(std::move(options)) {}
  ~ServiceClient();

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  /// Dials the configured endpoint now, redialing a refused connect until
  /// connect_timeout_ms elapses (covers the daemon's startup race in
  /// scripts: start vlcsa_serve &, connect immediately), and arms the I/O
  /// deadline.  Returns "" on success, else the error.
  [[nodiscard]] std::string connect_or_error();

  /// Points the client at a Unix socket with that connect window, then
  /// dials as above.
  [[nodiscard]] std::string connect_or_error(const std::string& socket_path, int timeout_ms = 0);

  /// Sends one request line and reads one response line (without trailing
  /// newline) into `response`, dialing first when not connected.  A
  /// transport error (an I/O deadline hit included) drops the connection.
  /// With a retry budget (options.retry.attempts > 0), a refused connect, a
  /// transport error or an "overloaded"/"draining"-coded error reply sleeps
  /// one backoff step and retries, up to that many times; each retry
  /// increments `*retries` when given.  Returns "" when a response line
  /// arrived — after exhausted retries that line may still be the refusal
  /// reply, so callers inspect `response` as usual; a non-empty return
  /// means transport failure even after retrying.  Without a budget this is
  /// one send and one line read: the reply is not parsed.
  [[nodiscard]] std::string roundtrip(const std::string& request_line, std::string& response,
                                      std::uint64_t* retries = nullptr);

  /// Reads one response line without sending anything — what a client does
  /// when the server speaks first, e.g. the one-line "overloaded" rejection
  /// a full-backlog connection receives.  Returns "" on success.
  [[nodiscard]] std::string read_response(std::string& response);

 private:
  /// Closes fd_ and clears the line buffer (half-received bytes must never
  /// leak into the next connection's framing).
  void close_connection();

  ClientOptions options_;
  int fd_ = -1;
  std::string buffer_;  // bytes received past the last complete line
};

/// The connection flags every daemon client shares — the endpoint
/// (`unix_flag`=PATH or --tcp=HOST:PORT), --connect-timeout-ms, --retries
/// and --retry-base-ms — parsed into `options`.  A binary presets
/// `options` with its own defaults before parsing, and keeps its own
/// --timeout-ms.
struct ClientFlags {
  explicit ClientFlags(const char* unix_flag) : unix_flag(unix_flag) {}

  /// The flag rows, to append to the binary's own.  They write into this
  /// object, which must stay in place until parsing is done.
  [[nodiscard]] std::vector<harness::ValueFlag> rows();

  /// Usage lines for the rows, showing the preset defaults.
  [[nodiscard]] std::string usage() const;

  /// After parsing: "" or the usage error (exit 2).  At most one endpoint
  /// (exactly one when `endpoint_required`), and no --retry-base-ms
  /// without retries (a dead backoff base).
  [[nodiscard]] std::string check(bool endpoint_required) const;

  /// True when an endpoint flag was given.
  [[nodiscard]] bool endpoint_given() const { return unix_given || tcp_given; }

  const char* unix_flag;
  ClientOptions options;
  bool unix_given = false;
  bool tcp_given = false;
  bool retry_base_given = false;
};

}  // namespace vlcsa::service
