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

/// Reads until `buffer` contains a '\n'; returns false on EOF/error before
/// a complete line (sets errno = 0 on clean EOF).  On success `line` holds
/// the line without the newline.
bool recv_line(int fd, std::string& buffer, std::string& line) {
  while (true) {
    const std::size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) {  // EOF mid-line
      errno = 0;
      return false;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

/// recv_line with an optional idle deadline and the request-line cap: when
/// no complete line is buffered and nothing arrives within
/// `idle_timeout_ms`, reports kIdle so the server can close a conversation
/// that went quiet (keep-alive hygiene); a line longer than
/// SocketServer::kMaxRequestLineBytes reports kTooLong, so `buffer` never
/// holds more than the cap plus one chunk.  Each received chunk is scanned
/// for the newline once.
enum class RecvStatus { kLine, kIdle, kClosed, kTooLong };

RecvStatus recv_line_idle(int fd, std::string& buffer, std::string& line,
                          int idle_timeout_ms) {
  std::size_t scanned = 0;  // buffer[0, scanned) holds no newline
  while (true) {
    const std::size_t newline = buffer.find('\n', scanned);
    if (newline != std::string::npos && newline <= SocketServer::kMaxRequestLineBytes) {
      line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      return RecvStatus::kLine;
    }
    if (buffer.size() > SocketServer::kMaxRequestLineBytes) return RecvStatus::kTooLong;
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
    if (n <= 0) return RecvStatus::kClosed;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

bool fill_sockaddr(const std::string& path, sockaddr_un& addr, std::string& error) {
  if (path.empty()) {
    error = "socket path is empty";
    return false;
  }
  if (path.size() >= sizeof(addr.sun_path)) {
    error = "socket path too long (max " + std::to_string(sizeof(addr.sun_path) - 1) +
            " bytes): " + path;
    return false;
  }
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return true;
}

/// Resolves host:port (numeric or named, IPv4 or IPv6).  Returns a
/// getaddrinfo result list the caller must freeaddrinfo(), or nullptr with
/// `error` set.
addrinfo* resolve_tcp(const std::string& host, int port, bool for_bind, std::string& error) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  if (for_bind) hints.ai_flags = AI_PASSIVE;
  addrinfo* result = nullptr;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(), service.c_str(), &hints,
                               &result);
  if (rc != 0) {
    error = "resolve " + host + ":" + service + ": " + ::gai_strerror(rc);
    return nullptr;
  }
  return result;
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

SocketServer::SocketServer(std::vector<ListenerSpec> listeners, ExperimentService& service,
                           Options options)
    : listeners_(std::move(listeners)), service_(service), options_(options) {
  if (options_.workers < 1) options_.workers = 1;
  if (options_.max_pending < 0) options_.max_pending = 0;
  listen_fds_.assign(listeners_.size(), -1);
}

SocketServer::SocketServer(std::vector<ListenerSpec> listeners, ExperimentService& service)
    : SocketServer(std::move(listeners), service, Options{}) {}

SocketServer::SocketServer(std::string socket_path, ExperimentService& service, int workers)
    : SocketServer({ListenerSpec::unix_socket(std::move(socket_path))}, service,
                   Options{workers, 128}) {}

SocketServer::~SocketServer() {
  for (std::size_t i = 0; i < listen_fds_.size(); ++i) {
    if (listen_fds_[i] < 0) continue;
    ::close(listen_fds_[i]);
    if (listeners_[i].kind == ListenerSpec::Kind::kUnix) {
      ::unlink(listeners_[i].path.c_str());
    }
  }
}

std::string SocketServer::socket_path() const {
  for (const ListenerSpec& listener : listeners_) {
    if (listener.kind == ListenerSpec::Kind::kUnix) return listener.path;
  }
  return {};
}

std::size_t SocketServer::pending_connections() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return pending_.size();
}

std::string SocketServer::listen_or_error() {
  if (listeners_.empty()) return "no listeners configured";
  for (std::size_t i = 0; i < listeners_.size(); ++i) {
    if (listen_fds_[i] >= 0) continue;  // already bound
    const ListenerSpec& listener = listeners_[i];
    if (listener.kind == ListenerSpec::Kind::kUnix) {
      sockaddr_un addr{};
      std::string error;
      if (!fill_sockaddr(listener.path, addr, error)) return error;
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) return errno_message("socket");
      ::unlink(listener.path.c_str());  // stale socket from a previous daemon
      if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
        const std::string error_text = errno_message("bind " + listener.path);
        ::close(fd);
        return error_text;
      }
      if (::listen(fd, 16) < 0) {
        const std::string error_text = errno_message("listen " + listener.path);
        ::close(fd);
        return error_text;
      }
      listen_fds_[i] = fd;
    } else {
      std::string error;
      addrinfo* addresses = resolve_tcp(listener.host, listener.port, /*for_bind=*/true, error);
      if (addresses == nullptr) return error;
      int fd = -1;
      std::string bind_error = "no usable address for " + listener.host;
      for (const addrinfo* address = addresses; address != nullptr;
           address = address->ai_next) {
        fd = ::socket(address->ai_family, address->ai_socktype, address->ai_protocol);
        if (fd < 0) {
          bind_error = errno_message("socket");
          continue;
        }
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        if (::bind(fd, address->ai_addr, address->ai_addrlen) == 0 && ::listen(fd, 16) == 0) {
          break;
        }
        bind_error = errno_message("bind " + listener.host + ":" +
                                   std::to_string(listener.port));
        ::close(fd);
        fd = -1;
      }
      ::freeaddrinfo(addresses);
      if (fd < 0) return bind_error;
      listen_fds_[i] = fd;
      // Resolve an ephemeral-port request (port 0) to the real bound port.
      if (tcp_port_ == 0) {
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
    const RecvStatus status = recv_line_idle(fd, buffer, line, options_.idle_timeout_ms);
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
        service_.metrics().record_rejected_connection();
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
      if (listeners_[i].kind == ListenerSpec::Kind::kUnix) {
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
  close_connection();
  // Remembered before dialing so reconnect() can retry a refused endpoint.
  endpoint_ = Endpoint::kUnix;
  unix_path_ = socket_path;
  connect_timeout_ms_ = timeout_ms;

  sockaddr_un addr{};
  std::string error;
  if (!fill_sockaddr(socket_path, addr, error)) return error;

  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return errno_message("socket");
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
      return {};
    }
    const std::string connect_error = errno_message("connect " + socket_path);
    ::close(fd_);
    fd_ = -1;
    if (Clock::now() >= deadline) return connect_error;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

std::string ServiceClient::connect_tcp_or_error(const std::string& host, int port,
                                                int timeout_ms) {
  close_connection();
  endpoint_ = Endpoint::kTcp;
  tcp_host_ = host;
  tcp_port_ = port;
  connect_timeout_ms_ = timeout_ms;

  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::string last_error = "connect " + host + ":" + std::to_string(port) + " failed";
  while (true) {
    std::string resolve_error;
    addrinfo* addresses = resolve_tcp(host, port, /*for_bind=*/false, resolve_error);
    if (addresses == nullptr) return resolve_error;
    for (const addrinfo* address = addresses; address != nullptr;
         address = address->ai_next) {
      fd_ = ::socket(address->ai_family, address->ai_socktype, address->ai_protocol);
      if (fd_ < 0) {
        last_error = errno_message("socket");
        continue;
      }
      if (::connect(fd_, address->ai_addr, address->ai_addrlen) == 0) {
        ::freeaddrinfo(addresses);
        return {};
      }
      last_error = errno_message("connect " + host + ":" + std::to_string(port));
      ::close(fd_);
      fd_ = -1;
    }
    ::freeaddrinfo(addresses);
    if (Clock::now() >= deadline) return last_error;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

std::string ServiceClient::set_io_timeout_ms(int timeout_ms) {
  if (fd_ < 0) return "not connected";
  if (timeout_ms < 0) timeout_ms = 0;
  io_timeout_ms_ = timeout_ms;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) < 0) {
    return errno_message("setsockopt SO_RCVTIMEO");
  }
  if (::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) < 0) {
    return errno_message("setsockopt SO_SNDTIMEO");
  }
  return {};
}

std::string ServiceClient::roundtrip(const std::string& request_line, std::string& response) {
  if (fd_ < 0) return "not connected";
  if (!send_all(fd_, request_line + "\n")) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return "send timed out";
    return errno_message("send");
  }
  return read_response(response);
}

std::string ServiceClient::read_response(std::string& response) {
  if (fd_ < 0) return "not connected";
  if (!recv_line(fd_, buffer_, response)) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return "read timed out waiting for a response line";
    }
    return "connection closed before a response line arrived";
  }
  return {};
}

std::string ServiceClient::reconnect() {
  const Endpoint endpoint = endpoint_;
  const int io_timeout_ms = io_timeout_ms_;
  std::string error;
  switch (endpoint) {
    case Endpoint::kNone:
      return "no endpoint configured (connect first)";
    case Endpoint::kUnix:
      error = connect_or_error(unix_path_, connect_timeout_ms_);
      break;
    case Endpoint::kTcp:
      error = connect_tcp_or_error(tcp_host_, tcp_port_, connect_timeout_ms_);
      break;
  }
  if (!error.empty()) return error;
  if (io_timeout_ms > 0) return set_io_timeout_ms(io_timeout_ms);
  return {};
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

std::string ServiceClient::roundtrip_with_retry(const std::string& request_line,
                                                std::string& response,
                                                const fleet::RetryPolicy& policy,
                                                std::uint64_t* retries_out) {
  fleet::BackoffSchedule backoff(policy);
  std::string error;
  for (int attempt = 0;; ++attempt) {
    if (attempt > 0) {
      if (retries_out != nullptr) ++*retries_out;
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff.next_delay_ms()));
    }
    if (fd_ < 0) {
      error = reconnect();
      if (!error.empty()) {
        if (attempt >= policy.attempts) return error;
        continue;  // refused/unreachable: the retryable case retries exist for
      }
    }
    error = roundtrip(request_line, response);
    if (!error.empty()) {
      // Transport failure (peer hung up mid-roundtrip, keep-alive cap, I/O
      // timeout): the connection state is unknown, drop it and redial.
      close_connection();
      if (attempt >= policy.attempts) return error;
      continue;
    }
    if (!reply_is_retryable(response)) return {};
    // The server answered but refused (overloaded/draining) — it also ends
    // such conversations, so redial rather than reuse the half-dead fd.
    close_connection();
    if (attempt >= policy.attempts) return {};  // caller sees the refusal reply
  }
}

}  // namespace vlcsa::service
