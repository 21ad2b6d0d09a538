#include "service/server.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "harness/json.hpp"

namespace vlcsa::service {

namespace {

std::string errno_message(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Blocking full-buffer send; MSG_NOSIGNAL so a peer that hung up yields an
/// error return instead of SIGPIPE killing the daemon.
bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads one line (without its newline) into `line`, keeping the bytes past
/// it in `buffer` for the next call; each received chunk is scanned for the
/// newline once.  With `idle_timeout_ms` > 0, a wait that sees nothing
/// arrive for that long reports kIdle, so the server can close a
/// conversation that went quiet (keep-alive hygiene).  A line longer than
/// `max_line_bytes` reports kTooLong, so `buffer` never holds more than the
/// cap plus one chunk (the server passes its request-line cap; replies are
/// not capped).  A recv that runs into SO_RCVTIMEO reports kTimedOut.
enum class RecvStatus { kLine, kIdle, kClosed, kTooLong, kTimedOut };

RecvStatus recv_line(int fd, std::string& buffer, std::string& line, int idle_timeout_ms = 0,
                     std::size_t max_line_bytes = std::string::npos) {
  std::size_t scanned = 0;  // buffer[0, scanned) holds no newline
  while (true) {
    const std::size_t newline = buffer.find('\n', scanned);
    if (newline != std::string::npos && newline <= max_line_bytes) {
      line.assign(buffer, 0, newline);
      buffer.erase(0, newline + 1);
      return RecvStatus::kLine;
    }
    if (buffer.size() > max_line_bytes) return RecvStatus::kTooLong;
    scanned = buffer.size();
    if (idle_timeout_ms > 0) {
      pollfd pfd{fd, POLLIN, 0};
      int ready;
      do {
        ready = ::poll(&pfd, 1, idle_timeout_ms);
      } while (ready < 0 && errno == EINTR);
      if (ready == 0) return RecvStatus::kIdle;
      if (ready < 0) return RecvStatus::kClosed;
    }
    char chunk[4096];
    ssize_t n;
    do {
      n = ::recv(fd, chunk, sizeof(chunk), 0);
    } while (n < 0 && errno == EINTR);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return RecvStatus::kTimedOut;
    if (n <= 0) return RecvStatus::kClosed;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

/// One socket address an endpoint names.
struct SocketAddress {
  sockaddr_storage storage{};
  socklen_t length = 0;

  [[nodiscard]] const sockaddr* get() const {
    return reinterpret_cast<const sockaddr*>(&storage);
  }
};

/// The addresses `endpoint` names, to bind (`for_bind`) or dial: the one
/// sockaddr_un of a Unix path, or every getaddrinfo result for host:port
/// (numeric or named, IPv4 or IPv6).  Returns "" or the error.
std::string resolve(const Endpoint& endpoint, bool for_bind,
                    std::vector<SocketAddress>& addresses) {
  addresses.clear();
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    sockaddr_un addr{};
    if (endpoint.path.empty()) return "socket path is empty";
    if (endpoint.path.size() >= sizeof(addr.sun_path)) {
      return "socket path too long (max " + std::to_string(sizeof(addr.sun_path) - 1) +
             " bytes): " + endpoint.path;
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, endpoint.path.c_str(), endpoint.path.size() + 1);
    SocketAddress& address = addresses.emplace_back();
    std::memcpy(&address.storage, &addr, sizeof(addr));
    address.length = sizeof(addr);
    return {};
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  if (for_bind) hints.ai_flags = AI_PASSIVE;
  addrinfo* result = nullptr;
  const std::string service = std::to_string(endpoint.port);
  const int rc = ::getaddrinfo(endpoint.host.empty() ? nullptr : endpoint.host.c_str(),
                               service.c_str(), &hints, &result);
  if (rc != 0) return "resolve " + endpoint.describe() + ": " + ::gai_strerror(rc);
  for (const addrinfo* info = result; info != nullptr; info = info->ai_next) {
    SocketAddress& address = addresses.emplace_back();
    std::memcpy(&address.storage, info->ai_addr, info->ai_addrlen);
    address.length = info->ai_addrlen;
  }
  ::freeaddrinfo(result);
  return {};
}

/// The one-line reply a connection gets when the pending queue is full; the
/// field shape matches service.cpp's error replies.
constexpr const char* kOverloadedLine =
    "{\"status\": \"error\", \"code\": \"overloaded\", "
    "\"error\": \"server overloaded: connection backlog full, retry later\"}\n";

/// The last line of a conversation whose request line outgrew the cap.
const std::string kLineTooLongLine =
    "{\"status\": \"error\", \"code\": \"bad-request\", \"error\": \"request line exceeds " +
    std::to_string(SocketServer::kMaxRequestLineBytes) + " bytes\"}\n";

}  // namespace

std::optional<Endpoint> Endpoint::parse_tcp(const std::string& host_port) {
  std::string host;
  int port = 0;
  if (!harness::parse_host_port(host_port, host, port)) return std::nullopt;
  return tcp(std::move(host), port);
}

SocketServer::SocketServer(std::vector<Endpoint> listeners, ExperimentService& service,
                           Options options)
    : listeners_(std::move(listeners)), service_(service), options_(options) {
  if (options_.workers < 1) options_.workers = 1;
  if (options_.max_pending < 0) options_.max_pending = 0;
  listen_fds_.assign(listeners_.size(), -1);
}

SocketServer::~SocketServer() {
  for (std::size_t i = 0; i < listen_fds_.size(); ++i) {
    if (listen_fds_[i] < 0) continue;
    ::close(listen_fds_[i]);
    if (listeners_[i].kind == Endpoint::Kind::kUnix) {
      ::unlink(listeners_[i].path.c_str());
    }
  }
}

std::string SocketServer::socket_path() const {
  for (const Endpoint& listener : listeners_) {
    if (listener.kind == Endpoint::Kind::kUnix) return listener.path;
  }
  return {};
}

std::size_t SocketServer::pending_connections() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return pending_.size();
}

std::string SocketServer::listen_or_error() {
  if (listeners_.empty()) return "no listeners configured";
  std::vector<SocketAddress> addresses;
  for (std::size_t i = 0; i < listeners_.size(); ++i) {
    if (listen_fds_[i] >= 0) continue;  // already bound
    const Endpoint& listener = listeners_[i];
    if (std::string error = resolve(listener, /*for_bind=*/true, addresses); !error.empty()) {
      return error;
    }
    const bool tcp = listener.kind == Endpoint::Kind::kTcp;
    if (!tcp) ::unlink(listener.path.c_str());  // stale socket from a previous daemon
    int fd = -1;
    std::string bind_error = "no usable address for " + listener.describe();
    for (const SocketAddress& address : addresses) {
      fd = ::socket(address.storage.ss_family, SOCK_STREAM, 0);
      if (fd < 0) {
        bind_error = errno_message("socket");
        continue;
      }
      const int one = 1;
      if (tcp) ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      if (::bind(fd, address.get(), address.length) == 0 && ::listen(fd, 16) == 0) break;
      bind_error = errno_message("bind " + listener.describe());
      ::close(fd);
      fd = -1;
    }
    if (fd < 0) return bind_error;
    listen_fds_[i] = fd;
    // Resolve an ephemeral-port request (port 0) to the real bound port.
    if (tcp && tcp_port_ == 0) {
      sockaddr_storage bound{};
      socklen_t bound_len = sizeof(bound);
      if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0) {
        if (bound.ss_family == AF_INET) {
          tcp_port_ = ntohs(reinterpret_cast<const sockaddr_in*>(&bound)->sin_port);
        } else if (bound.ss_family == AF_INET6) {
          tcp_port_ = ntohs(reinterpret_cast<const sockaddr_in6*>(&bound)->sin6_port);
        }
      }
    }
  }
  return {};
}

void SocketServer::begin_drain() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ || draining_) return;
    draining_ = true;
    drain_start_ = std::chrono::steady_clock::now();
  }
  // Outside the lock: the service takes its own locks flipping drain state.
  service_.begin_drain();
}

void SocketServer::request_stop() {
  const std::lock_guard<std::mutex> lock(mutex_);
  stopping_ = true;
  // Workers may be blocked in recv() on an open conversation and would
  // otherwise never observe the stop; half-closing every active connection
  // makes their next recv() return 0, ending the conversation.  Safe under
  // the lock: an fd is removed from active_ (and closed) under this same
  // lock, so no shutdown() can hit a recycled descriptor.
  for (const int fd : active_) ::shutdown(fd, SHUT_RDWR);
  queue_cv_.notify_all();
}

void SocketServer::handle_connection(int fd) {
  std::string buffer;
  std::string line;
  int served = 0;
  while (true) {
    const RecvStatus status = recv_line(fd, buffer, line, options_.idle_timeout_ms,
                                        kMaxRequestLineBytes);
    if (status == RecvStatus::kTooLong) {
      // Bytes past the cap stay unread: the conversation ends here.
      send_all(fd, kLineTooLongLine);
      break;
    }
    if (status != RecvStatus::kLine) break;  // peer gone or idle-timed-out
    if (line.empty()) continue;
    // handle_line has moved every counter, gauge and log line this reply
    // reports on before it returns.  Only the transport's own stop/drain
    // state follows the send: flipping it first could shut this connection
    // before its reply went out.
    ExperimentService::Reply reply = service_.handle_line(line);
    reply.line += '\n';  // in place: the reply is not copied to frame it
    if (!send_all(fd, reply.line)) break;
    if (reply.shutdown) {
      request_stop();
      break;
    }
    if (reply.drain) {
      // Like the stdio transport, the drain reply ends this conversation;
      // begin_drain moves serve() into its graceful-stop sequence.
      begin_drain();
      break;
    }
    ++served;
    if (options_.max_requests_per_conn > 0 && served >= options_.max_requests_per_conn) {
      break;  // keep-alive cap: the client redials (or retries) to continue
    }
  }
}

void SocketServer::worker_loop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [&] { return stopping_ || !pending_.empty(); });
      if (stopping_) return;  // queued connections are closed unserved by serve()
      fd = pending_.front();
      pending_.pop_front();
      active_.push_back(fd);
    }
    handle_connection(fd);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      active_.erase(std::find(active_.begin(), active_.end(), fd));
      ::close(fd);
    }
  }
}

std::string SocketServer::serve() {
  if (std::string error = listen_or_error(); !error.empty()) return error;

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) pool.emplace_back([this] { worker_loop(); });

  std::vector<pollfd> pfds;
  pfds.reserve(listen_fds_.size());

  // Accept with a poll timeout so a stop requested from a worker (shutdown
  // request) is noticed within one tick even with no incoming connection.
  std::string failure;
  while (failure.empty()) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_ || draining_) break;
    }
    pfds.clear();
    for (const int fd : listen_fds_) pfds.push_back({fd, POLLIN, 0});
    const int ready = ::poll(pfds.data(), pfds.size(), /*timeout_ms=*/200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      failure = errno_message("poll");
      break;
    }
    if (ready == 0) continue;
    for (const pollfd& pfd : pfds) {
      if ((pfd.revents & POLLIN) == 0) continue;
      const int fd = ::accept(pfd.fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
            errno == EWOULDBLOCK) {
          continue;
        }
        failure = errno_message("accept");
        break;
      }
      bool reject = false;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (options_.max_pending > 0 &&
            pending_.size() >= static_cast<std::size_t>(options_.max_pending)) {
          reject = true;
        } else {
          pending_.push_back(fd);
        }
      }
      if (reject) {
        // Shedding load beats queueing unboundedly: tell the peer why in one
        // protocol-shaped line, then close.  Counted first, like every
        // counter a reply reports on: a peer that has read the line must
        // find it in the metrics.
        service_.metrics().add({.rejected_connections = 1});
        send_all(fd, kOverloadedLine);
        ::close(fd);
      } else {
        queue_cv_.notify_one();
      }
    }
  }

  // Graceful drain: stop listening right away (peers get ECONNREFUSED and
  // retry another replica), keep serving the conversations we already have —
  // their new runs answer "draining" — and wait for in-flight work.  At the
  // drain deadline, cancel what is still running and read-half-close the
  // remaining conversations (SHUT_RD, not RDWR: replies in flight still
  // deliver, the next recv sees EOF).  A short backstop bounds the wait even
  // against a worker wedged mid-send.
  bool drained = false;
  std::chrono::steady_clock::time_point drain_start;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    drained = draining_ && !stopping_;
    drain_start = drain_start_;
  }
  if (failure.empty() && drained) {
    for (std::size_t i = 0; i < listen_fds_.size(); ++i) {
      if (listen_fds_[i] < 0) continue;
      ::close(listen_fds_[i]);
      listen_fds_[i] = -1;
      if (listeners_[i].kind == Endpoint::Kind::kUnix) {
        ::unlink(listeners_[i].path.c_str());
      }
    }
    const auto deadline = drain_start + std::chrono::milliseconds(options_.drain_ms);
    const auto backstop = deadline + std::chrono::seconds(2);
    bool cancelled = false;
    while (true) {
      const bool runs_done = service_.active_runs() == 0;
      bool conversations_done = false;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_) break;
        conversations_done = pending_.empty() && active_.empty();
      }
      if (runs_done && conversations_done) break;
      const auto now = std::chrono::steady_clock::now();
      if (now >= backstop) break;
      if (now >= deadline && !cancelled) {
        service_.cancel_active_runs();
        cancelled = true;
      }
      if (runs_done || now >= deadline) {
        // Only conversations remain (idle keep-alives, or ones whose runs
        // were just cancelled): end them after their in-flight replies.
        const std::lock_guard<std::mutex> lock(mutex_);
        for (const int fd : active_) ::shutdown(fd, SHUT_RD);
        for (const int fd : pending_) ::shutdown(fd, SHUT_RD);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  // The one shutdown path, for a drained stop, a requested stop and an
  // accept-loop failure alike: stop and join the workers, then close
  // connections still queued unserved — an error return must not leak the
  // pending fds.
  request_stop();
  for (auto& worker : pool) worker.join();
  for (const int fd : pending_) ::close(fd);
  pending_.clear();
  return failure;
}

ServiceClient::~ServiceClient() {
  if (fd_ >= 0) ::close(fd_);
}

void ServiceClient::close_connection() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

std::string ServiceClient::connect_or_error(const std::string& socket_path, int timeout_ms) {
  options_.endpoint = Endpoint::unix_socket(socket_path);
  options_.connect_timeout_ms = timeout_ms;
  return connect_or_error();
}

std::string ServiceClient::connect_or_error() {
  close_connection();
  std::vector<SocketAddress> addresses;
  if (std::string error = resolve(options_.endpoint, /*for_bind=*/false, addresses);
      !error.empty()) {
    return error;
  }
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::milliseconds(options_.connect_timeout_ms);
  std::string error = "no usable address for " + options_.endpoint.describe();
  while (true) {
    for (const SocketAddress& address : addresses) {
      fd_ = ::socket(address.storage.ss_family, SOCK_STREAM, 0);
      if (fd_ < 0) {
        error = errno_message("socket");
        continue;
      }
      if (::connect(fd_, address.get(), address.length) == 0) break;
      error = errno_message("connect " + options_.endpoint.describe());
      ::close(fd_);
      fd_ = -1;
    }
    if (fd_ >= 0) break;
    if (Clock::now() >= deadline) return error;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // The I/O deadline belongs to every connection this client dials.
  if (options_.io_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = options_.io_timeout_ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>((options_.io_timeout_ms % 1000) * 1000);
    for (const int option : {SO_RCVTIMEO, SO_SNDTIMEO}) {
      if (::setsockopt(fd_, SOL_SOCKET, option, &tv, sizeof(tv)) < 0) {
        error = errno_message("setsockopt");
        close_connection();
        return error;
      }
    }
  }
  return {};
}

std::string ServiceClient::read_response(std::string& response) {
  if (fd_ < 0) return "not connected";
  switch (recv_line(fd_, buffer_, response)) {
    case RecvStatus::kLine:
      return {};
    case RecvStatus::kTimedOut:
      return "read timed out waiting for a response line";
    default:
      return "connection closed before a response line arrived";
  }
}

namespace {

/// True for well-formed error replies a retry can help with: the server
/// refused this request ("overloaded" backlog shed, "draining" rotation) but
/// the same request is valid against the same fleet a moment later.  Every
/// other reply — ok, a semantic error, or a line that does not parse — is
/// final.
bool reply_is_retryable(const std::string& response) {
  using Kind = harness::JsonValue::Kind;
  const harness::JsonParse parse = harness::parse_json(response);
  if (!parse.ok()) return false;
  const harness::JsonValue* status = parse.value.find("status");
  if (status == nullptr || status->kind() != Kind::kString ||
      status->as_string() != "error") {
    return false;
  }
  const harness::JsonValue* code = parse.value.find("code");
  if (code == nullptr || code->kind() != Kind::kString) return false;
  return code->as_string() == "overloaded" || code->as_string() == "draining";
}

}  // namespace

std::string ServiceClient::roundtrip(const std::string& request_line, std::string& response,
                                     std::uint64_t* retries) {
  const fleet::RetryPolicy& policy = options_.retry;
  std::optional<fleet::BackoffSchedule> backoff;  // built by the first retry
  for (int attempt = 0;; ++attempt) {
    std::string error;
    if (fd_ < 0) error = connect_or_error();
    if (error.empty() && !send_all(fd_, request_line + "\n")) {
      error = errno == EAGAIN || errno == EWOULDBLOCK ? "send timed out" : errno_message("send");
    }
    if (error.empty()) error = read_response(response);
    if (error.empty() && (policy.attempts == 0 || !reply_is_retryable(response))) return {};
    // A transport error leaves the connection state unknown, and a server
    // that refused (overloaded/draining) also ends the conversation: either
    // way the next attempt redials.
    close_connection();
    if (attempt >= policy.attempts) return error;  // "" hands the caller the refusal reply
    if (!backoff) backoff.emplace(policy);
    if (retries != nullptr) ++*retries;
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff->next_delay_ms()));
  }
}

std::vector<harness::ValueFlag> ClientFlags::rows() {
  return {
      {unix_flag,
       [this](const std::string& value) {
         if (value.empty()) return false;
         unix_given = true;
         options.endpoint = Endpoint::unix_socket(value);
         return true;
       }},
      {"--tcp",
       [this](const std::string& value) {
         std::optional<Endpoint> endpoint = Endpoint::parse_tcp(value);
         if (!endpoint) return false;
         tcp_given = true;
         options.endpoint = std::move(*endpoint);
         return true;
       }},
      {"--connect-timeout-ms",
       [this](const std::string& value) {
         return harness::parse_nonnegative_int(value, options.connect_timeout_ms);
       }},
      {"--retries",
       [this](const std::string& value) {
         return harness::parse_nonnegative_int(value, options.retry.attempts);
       }},
      {"--retry-base-ms",
       [this](const std::string& value) {
         retry_base_given = true;
         return harness::parse_nonnegative_int(value, options.retry.base_ms) &&
                options.retry.base_ms > 0;
       }},
  };
}

std::string ClientFlags::usage() const {
  return std::string("  ") + unix_flag +
         "=PATH | --tcp=HOST:PORT\n"
         "                    the vlcsa_serve endpoint: Unix domain socket or TCP\n"
         "  --connect-timeout-ms=T  keep redialing a refused connect this long\n"
         "                    (default " +
         std::to_string(options.connect_timeout_ms) +
         "; 0 = one attempt)\n"
         "  --retries=N       retry a refused connect, a transport failure, or an\n"
         "                    overloaded/draining error reply up to N times per\n"
         "                    request, with exponential backoff + jitter (default " +
         std::to_string(options.retry.attempts) +
         ")\n"
         "  --retry-base-ms=T first backoff step; doubles per retry, capped at\n"
         "                    " +
         std::to_string(options.retry.max_ms) + " ms (default " +
         std::to_string(options.retry.base_ms) + ")\n";
}

std::string ClientFlags::check(bool endpoint_required) const {
  const std::string unix_name = unix_flag;
  if (endpoint_required && unix_given == tcp_given) {
    return "exactly one of " + unix_name + "=PATH or --tcp=HOST:PORT is required";
  }
  if (unix_given && tcp_given) return unix_name + " and --tcp are mutually exclusive";
  // A backoff base without retries would be silently dead.
  if (retry_base_given && options.retry.attempts == 0) return "--retry-base-ms requires --retries";
  return {};
}

}  // namespace vlcsa::service
