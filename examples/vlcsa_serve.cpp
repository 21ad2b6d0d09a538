// vlcsa_serve — the experiment service daemon (src/service): a long-running
// front end over the experiment registry with a two-tier result cache, so
// repeated table/figure reproductions and wide adder-comparison sweeps stop
// paying cold-start and re-sampling costs.  Speaks newline-delimited JSON
// over a Unix domain socket, TCP, or stdin/stdout with --stdio; --socket and
// --tcp may be combined (one cache, one worker pool, both transports);
// protocol reference in DESIGN.md, operational runbook in docs/OPERATIONS.md.
//
//   $ ./build/examples/vlcsa_serve --socket=/tmp/vlcsa.sock --cache-dir=.vlcsa-cache &
//   $ ./build/examples/vlcsa_client --socket=/tmp/vlcsa.sock --request=run
//         --experiment=table7.1/n64 --samples=200000
//   $ ./build/examples/vlcsa_serve --tcp=127.0.0.1:7411 --cache-dir=.vlcsa-cache &
//   $ echo '{"request": "run", "experiment": "table7.1/n64"}'
//         | ./build/examples/vlcsa_serve --stdio --cache-dir=.vlcsa-cache

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "harness/cli.hpp"
#include "service/server.hpp"
#include "service/service.hpp"

using namespace vlcsa;

namespace {

// SIGTERM/SIGINT request a graceful drain (rotation scripts `kill` the pid
// from --pid-file).  The handler only sets a flag; a watcher thread calls
// begin_drain() from normal context — everything interesting is
// async-signal-unsafe.
volatile std::sig_atomic_t g_signal = 0;

void handle_signal(int) { g_signal = 1; }

void print_usage() {
  std::cout << "usage: vlcsa_serve [--socket=PATH] [--tcp=HOST:PORT] [--stdio]\n"
               "                   [--cache-dir=DIR] [--cache-max-bytes=N]\n"
               "                   [--memory-entries=N] [--threads=T] [--workers=N]\n"
               "                   [--timeout-ms=T] [--max-pending=N]\n"
               "                   [--trace-log=FILE] [--access-log=FILE]\n"
               "                   [--access-log-max-bytes=N] [--slow-ms=T]\n"
               "                   [--pid-file=FILE] [--drain-ms=T]\n"
               "                   [--max-requests-per-conn=N] [--idle-timeout-ms=T]\n"
               "                   [--lease-stale-ms=T]\n"
               "  --socket           Unix domain socket path to listen on\n"
               "  --tcp              TCP endpoint to listen on (port 0 = ephemeral;\n"
               "                     the bound port is printed on stderr); may be\n"
               "                     combined with --socket\n"
               "  --stdio            serve stdin/stdout instead of a socket (one-shot\n"
               "                     pipelines and tests)\n"
               "  --cache-dir        on-disk result cache directory (created if absent;\n"
               "                     default: no disk tier)\n"
               "  --cache-max-bytes  disk-tier byte cap: stores evict the oldest record\n"
               "                     files until the tier fits (default 0 = unbounded)\n"
               "  --memory-entries   in-memory LRU capacity (default 64; 0 disables)\n"
               "  --threads          engine threads per experiment run, 0 = all\n"
               "                     hardware threads (default 0)\n"
               "  --workers          warm connection-worker pool size (default 2)\n"
               "  --timeout-ms       default per-run deadline; a run past it is\n"
               "                     cancelled and answers a timeout error (default 0 =\n"
               "                     none; requests may override with \"timeout_ms\")\n"
               "  --max-pending      reject new connections with an \"overloaded\" error\n"
               "                     once this many await a worker (default 128; 0 =\n"
               "                     queue unboundedly)\n"
               "  --trace-log        JSONL request-trace sink: one line per request with\n"
               "                     its span tree (and engine profile on cache misses)\n"
               "  --access-log       JSONL access-log sink: one compact line per request\n"
               "                     (timestamp, trace id, type, cache, latency, code)\n"
               "  --access-log-max-bytes  rotate the access log to FILE.1 when a write\n"
               "                     would push it past N bytes (default 0 = unbounded)\n"
               "  --slow-ms          flag requests at/over this wall time with\n"
               "                     \"slow\": true in the logs (default 0 = never)\n"
               "  --pid-file         write the daemon pid here once the listeners are\n"
               "                     bound; removed again on clean exit (rotation\n"
               "                     scripts `kill` this pid to drain)\n"
               "  --drain-ms         graceful-drain deadline: on SIGTERM/SIGINT or a\n"
               "                     drain request, wait this long for in-flight runs\n"
               "                     before cancelling them (default 30000)\n"
               "  --max-requests-per-conn  close a keep-alive conversation after this\n"
               "                     many requests (default 0 = unbounded)\n"
               "  --idle-timeout-ms  close a conversation idle this long (default 0 =\n"
               "                     never)\n"
               "  --lease-stale-ms   fleet cache sharing: age past which another\n"
               "                     replica's compute lease or .tmp file counts as\n"
               "                     crashed and is taken over (default 30000; 0 =\n"
               "                     never take over)\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::optional<service::Endpoint> tcp;  // port 0 = ephemeral
  bool stdio = false;
  bool show_help = false;
  service::ServiceConfig config;
  service::SocketServer::Options server_options;
  int memory_entries = 64;
  bool workers_given = false;
  bool max_pending_given = false;
  std::string pid_file;
  bool drain_ms_given = false;
  bool conn_limits_given = false;
  bool lease_stale_given = false;

  const std::vector<harness::ValueFlag> flags = {
      {"--socket",
       [&](const std::string& value) {
         if (value.empty()) return false;
         socket_path = value;
         return true;
       }},
      {"--tcp",
       [&](const std::string& value) {
         tcp = service::Endpoint::parse_tcp(value);
         return tcp.has_value();
       }},
      {"--cache-dir",
       [&](const std::string& value) {
         if (value.empty()) return false;
         config.cache_dir = value;
         return true;
       }},
      {"--cache-max-bytes",
       [&](const std::string& value) {
         return harness::parse_u64(value, config.cache_max_bytes);
       }},
      {"--memory-entries",
       [&](const std::string& value) {
         return harness::parse_nonnegative_int(value, memory_entries);
       }},
      {"--threads",
       [&](const std::string& value) {
         return harness::parse_nonnegative_int(value, config.threads);
       }},
      {"--workers",
       [&](const std::string& value) {
         workers_given = true;
         return harness::parse_nonnegative_int(value, server_options.workers) &&
                server_options.workers > 0;
       }},
      {"--timeout-ms",
       [&](const std::string& value) {
         return harness::parse_nonnegative_int(value, config.timeout_ms);
       }},
      {"--max-pending",
       [&](const std::string& value) {
         max_pending_given = true;
         return harness::parse_nonnegative_int(value, server_options.max_pending);
       }},
      {"--trace-log",
       [&](const std::string& value) {
         if (value.empty()) return false;
         config.trace_log = value;
         return true;
       }},
      {"--access-log",
       [&](const std::string& value) {
         if (value.empty()) return false;
         config.access_log = value;
         return true;
       }},
      {"--access-log-max-bytes",
       [&](const std::string& value) {
         return harness::parse_u64(value, config.access_log_max_bytes);
       }},
      {"--slow-ms",
       [&](const std::string& value) {
         return harness::parse_nonnegative_int(value, config.slow_ms);
       }},
      {"--pid-file",
       [&](const std::string& value) {
         if (value.empty()) return false;
         pid_file = value;
         return true;
       }},
      {"--drain-ms",
       [&](const std::string& value) {
         drain_ms_given = true;
         return harness::parse_nonnegative_int(value, server_options.drain_ms);
       }},
      {"--max-requests-per-conn",
       [&](const std::string& value) {
         conn_limits_given = true;
         return harness::parse_nonnegative_int(value, server_options.max_requests_per_conn);
       }},
      {"--idle-timeout-ms",
       [&](const std::string& value) {
         conn_limits_given = true;
         return harness::parse_nonnegative_int(value, server_options.idle_timeout_ms);
       }},
      {"--lease-stale-ms",
       [&](const std::string& value) {
         lease_stale_given = true;
         return harness::parse_nonnegative_int(value, config.lease_stale_ms);
       }},
  };

  // --stdio and --help take no value, so they sit outside the ValueFlag set.
  std::vector<const char*> value_args;
  value_args.push_back(argc > 0 ? argv[0] : "vlcsa_serve");
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--stdio") {
      stdio = true;
    } else if (arg == "--help" || arg == "-h") {
      show_help = true;
    } else {
      value_args.push_back(argv[i]);
    }
  }
  if (show_help) {
    print_usage();
    return 0;
  }
  if (const std::string error = harness::parse_value_flags(
          static_cast<int>(value_args.size()), value_args.data(), flags);
      !error.empty()) {
    std::cerr << "error: " << error << "\n";
    print_usage();
    return 2;
  }
  if (!stdio && socket_path.empty() && !tcp) {
    std::cerr << "error: one of --socket=PATH, --tcp=HOST:PORT or --stdio is required\n";
    print_usage();
    return 2;
  }
  if (stdio && (!socket_path.empty() || tcp)) {
    std::cerr << "error: --stdio is mutually exclusive with --socket/--tcp\n";
    print_usage();
    return 2;
  }
  if (config.cache_max_bytes != 0 && config.cache_dir.empty()) {
    // A silently dead cap would suggest bounded disk usage that isn't there.
    std::cerr << "error: --cache-max-bytes requires --cache-dir\n";
    print_usage();
    return 2;
  }
  if (config.access_log_max_bytes != 0 && config.access_log.empty()) {
    // A silently dead rotation cap would suggest bounded logs that aren't.
    std::cerr << "error: --access-log-max-bytes requires --access-log\n";
    print_usage();
    return 2;
  }
  if (config.slow_ms != 0 && config.trace_log.empty() && config.access_log.empty()) {
    // The slow flag only surfaces in log lines; without a sink it is dead.
    std::cerr << "error: --slow-ms requires --trace-log or --access-log\n";
    print_usage();
    return 2;
  }
  if (stdio && (workers_given || max_pending_given)) {
    // Stdio serving is one conversation on one stream; silently dead
    // --workers/--max-pending would suggest parallelism that isn't there.
    std::cerr << "error: --workers/--max-pending only apply to socket mode\n";
    print_usage();
    return 2;
  }
  if (stdio && (drain_ms_given || conn_limits_given || !pid_file.empty())) {
    // Same principle: these only shape socket-mode connection handling.
    std::cerr << "error: --pid-file/--drain-ms/--max-requests-per-conn/"
                 "--idle-timeout-ms only apply to socket mode\n";
    print_usage();
    return 2;
  }
  if (lease_stale_given && config.cache_dir.empty()) {
    // The lease/scratch staleness age only matters for a shared disk tier.
    std::cerr << "error: --lease-stale-ms requires --cache-dir\n";
    print_usage();
    return 2;
  }
  config.memory_entries = static_cast<std::size_t>(memory_entries);

  service::ExperimentService service(config);
  if (const std::string& error = service.log_error(); !error.empty()) {
    // Refuse to serve without a requested log rather than silently dropping
    // the operator's observability.
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  if (stdio) {
    service::serve_stdio(std::cin, std::cout, service);
    return 0;
  }

  std::vector<service::Endpoint> listeners;
  if (!socket_path.empty()) listeners.push_back(service::Endpoint::unix_socket(socket_path));
  if (tcp) listeners.push_back(*tcp);
  service::SocketServer server(std::move(listeners), service, server_options);
  if (const std::string error = server.listen_or_error(); !error.empty()) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  // The pid file appears only once the listeners are bound, so a rotation
  // script that sees it can connect immediately.
  if (!pid_file.empty()) {
    std::ofstream pid_out(pid_file, std::ios::trunc);
    pid_out << ::getpid() << "\n";
    pid_out.flush();
    if (!pid_out) {
      std::cerr << "error: cannot write pid file " << pid_file << "\n";
      return 1;
    }
  }
  std::cerr << "vlcsa_serve: listening on";
  if (!socket_path.empty()) std::cerr << " " << socket_path;
  if (tcp) std::cerr << " " << tcp->host << ":" << server.tcp_port();
  std::cerr << (config.cache_dir.empty() ? " (memory cache only)"
                                         : ", cache dir " + config.cache_dir)
            << "\n";

  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);
  std::atomic<bool> serve_done{false};
  std::thread signal_watcher([&] {
    while (!serve_done.load(std::memory_order_relaxed)) {
      if (g_signal != 0) server.begin_drain();  // idempotent
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });
  const std::string serve_error = server.serve();
  serve_done.store(true, std::memory_order_relaxed);
  signal_watcher.join();
  if (!pid_file.empty()) std::remove(pid_file.c_str());
  if (!serve_error.empty()) {
    std::cerr << "error: " << serve_error << "\n";
    return 1;
  }
  return 0;
}
