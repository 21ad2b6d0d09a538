// vlcsa_sweep — sweep orchestrator for the experiment grid (the paper's
// Table 7.x / Fig 7.x grids and any registry family's rows): expands a JSON
// sweep spec into a deterministic cell list and runs every cell, either
// in-process through an owned service instance (and its result cache) or
// against a running vlcsa_serve daemon over run-batch chunks with
// retry/backoff.  Live progress, a JSONL event log, and a vlcsa-sweep-1
// report make a multi-hour grid watchable, attributable and resumable:
// re-running the same spec against the same cache dir answers prior work as
// cell-cached and only computes the frontier.  Runbook in docs/OPERATIONS.md.
//
//   $ ./build/examples/vlcsa_sweep --spec=grid.json --cache-dir=/tmp/cells
//         --event-log=sweep.jsonl --json=SWEEP_report.json
//   $ ./build/examples/vlcsa_sweep --spec=grid.json --daemon=/tmp/vlcsa.sock
//         --retries=3 --event-log=sweep.jsonl
//   $ ./build/examples/vlcsa_sweep --validate=sweep.jsonl
//
// Exit status: 0 = every cell ok (or a clean --expand/--validate), 1 = any
// failed cell, aborted sweep, or failed validation, 2 = usage error.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "harness/cli.hpp"
#include "harness/sweep.hpp"
#include "service/server.hpp"
#include "service/service.hpp"

using namespace vlcsa;

namespace {

void print_usage(const service::ClientFlags& connection) {
  std::cout
      << "usage: vlcsa_sweep --spec=FILE [mode] [observability]\n"
         "       vlcsa_sweep --spec=FILE --expand\n"
         "       vlcsa_sweep --validate=FILE\n"
         "mode (default: in-process):\n"
         "  --cache-dir=DIR   in-process result cache (resume runs point the\n"
         "                    next sweep at the same DIR)\n"
         "  --threads=N       in-process engine threads per cell (0 = all)\n"
         "daemon mode (instead of in-process; one request per chunk):\n"
      << connection.usage()
      << "sweep shape:\n"
         "  --chunk=N         cells per run-batch request (1..4096, default 16)\n"
         "  --timeout-ms=T    per-chunk run deadline (default: server default)\n"
         "observability:\n"
         "  --event-log=FILE  JSONL sweep event log (sweep-start/cell-*/sweep-done)\n"
         "  --event-log-max-bytes=N  rotate the event log at this size\n"
         "  --json=FILE       write the vlcsa-sweep-1 report object here\n"
         "  --progress=on|off live progress line on stderr (default on; use\n"
         "                    off for CI logs)\n"
         "other modes:\n"
         "  --expand          print the expanded cell list (one id per line)\n"
         "                    without running anything\n"
         "  --validate=FILE   validate a sweep event log: every started cell\n"
         "                    has exactly one terminal event and the sweep-done\n"
         "                    counts reconcile; exit 1 when they do not\n"
         "exit status: 0 all cells ok, 1 failed/aborted/invalid, 2 usage error\n";
}

/// The largest --chunk: a run-batch element is at most ~140 bytes (the
/// longest registry name, 20-digit samples and seed), so a full chunk stays
/// well inside the daemon's request-line cap.
constexpr int kMaxChunk = 4096;
static_assert(std::size_t{kMaxChunk} * 140 < service::SocketServer::kMaxRequestLineBytes);

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path;
  std::string validate_path;
  std::string cache_dir;
  service::ClientFlags connection("--daemon");
  connection.options.connect_timeout_ms = 2000;
  connection.options.retry.attempts = 3;
  int threads = 0;
  int chunk = 16;
  int timeout_ms = 0;
  std::string event_log_path;
  std::uint64_t event_log_max_bytes = 0;
  std::string json_path;
  bool progress = true;
  bool expand_only = false;

  std::vector<harness::ValueFlag> flags = {
      {"--spec",
       [&](const std::string& value) {
         if (value.empty()) return false;
         spec_path = value;
         return true;
       }},
      {"--validate",
       [&](const std::string& value) {
         if (value.empty()) return false;
         validate_path = value;
         return true;
       }},
      {"--cache-dir",
       [&](const std::string& value) {
         if (value.empty()) return false;
         cache_dir = value;
         return true;
       }},
      {"--threads",
       [&](const std::string& value) { return harness::parse_nonnegative_int(value, threads); }},
      {"--chunk",
       [&](const std::string& value) {
         return harness::parse_nonnegative_int(value, chunk) && chunk > 0 &&
                chunk <= kMaxChunk;
       }},
      {"--timeout-ms",
       [&](const std::string& value) {
         return harness::parse_nonnegative_int(value, timeout_ms);
       }},
      {"--event-log",
       [&](const std::string& value) {
         if (value.empty()) return false;
         event_log_path = value;
         return true;
       }},
      {"--event-log-max-bytes",
       [&](const std::string& value) {
         return harness::parse_u64(value, event_log_max_bytes);
       }},
      {"--json",
       [&](const std::string& value) {
         if (value.empty()) return false;
         json_path = value;
         return true;
       }},
      {"--progress",
       [&](const std::string& value) {
         if (value == "on") {
           progress = true;
           return true;
         }
         if (value == "off") {
           progress = false;
           return true;
         }
         return false;
       }},
  };
  for (harness::ValueFlag& row : connection.rows()) flags.push_back(std::move(row));

  // Bare flags (--help, --expand) are peeled off before the strict
  // "--name=value" pass; everything else must address a ValueFlag.
  std::vector<const char*> value_args = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(connection);
      return 0;
    }
    if (arg == "--expand") {
      expand_only = true;
      continue;
    }
    value_args.push_back(argv[i]);
  }
  if (const std::string error = harness::parse_value_flags(
          static_cast<int>(value_args.size()), value_args.data(), flags);
      !error.empty()) {
    std::cerr << "error: " << error << "\n";
    print_usage(connection);
    return 2;
  }

  // Validation mode stands alone: it reads one event log and judges it.
  if (!validate_path.empty()) {
    if (!spec_path.empty() || expand_only) {
      std::cerr << "error: --validate does not combine with --spec/--expand\n";
      return 2;
    }
    std::ifstream in(validate_path);
    if (!in) {
      std::cerr << "error: cannot open event log " << validate_path << "\n";
      return 2;
    }
    const harness::SweepLogValidation validation = harness::validate_sweep_event_log(in);
    if (!validation.ok()) {
      std::cerr << "error: " << validate_path << ": " << validation.error << "\n";
      return 1;
    }
    std::cout << "ok: " << validation.cells << " cells (" << validation.computed
              << " computed, " << validation.resumed << " cached, " << validation.failed
              << " failed)\n";
    return 0;
  }

  if (spec_path.empty()) {
    std::cerr << "error: --spec=FILE is required\n";
    return 2;
  }
  if (const std::string error = connection.check(/*endpoint_required=*/false); !error.empty()) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }
  const bool daemon_mode = connection.endpoint_given();
  if (daemon_mode && !cache_dir.empty()) {
    std::cerr << "error: --cache-dir applies to in-process mode only "
                 "(the daemon owns its cache)\n";
    return 2;
  }

  std::string spec_text;
  {
    std::ifstream in(spec_path);
    if (!in) {
      std::cerr << "error: cannot open sweep spec " << spec_path << "\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    spec_text = buffer.str();
  }
  const harness::SweepSpecParse parsed = harness::parse_sweep_spec(spec_text);
  if (!parsed.ok()) {
    std::cerr << "error: " << spec_path << ": " << parsed.error << "\n";
    return 2;
  }
  const harness::SweepSpec& spec = parsed.spec;

  if (expand_only) {
    for (const harness::SweepCell& cell : spec.cells) {
      std::cout << cell.id << "\n";
    }
    std::cerr << spec.cells.size() << " cell(s)\n";
    return 0;
  }

  harness::SweepOptions options;
  options.chunk = static_cast<std::size_t>(chunk);
  options.timeout_ms = static_cast<std::uint64_t>(timeout_ms);
  options.progress = progress;
  options.event_log_path = event_log_path;
  options.event_log_max_bytes = event_log_max_bytes;
  // Wall-clock trace-id prefix (loadgen idiom): chunk ids from successive
  // sweep runs stay distinct in a shared daemon trace log.
  {
    char stamp[32];
    std::snprintf(stamp, sizeof(stamp), "sw-%llx",
                  static_cast<unsigned long long>(
                      std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::system_clock::now().time_since_epoch())
                          .count()));
    options.trace_prefix = stamp;
  }

  harness::SweepResult result;
  if (daemon_mode) {
    options.mode = "daemon";
    options.endpoint = connection.options.endpoint.describe();
    service::ServiceClient client(connection.options);
    if (const std::string error = client.connect_or_error();
        !error.empty() && connection.options.retry.attempts == 0) {
      std::cerr << "error: " << error << "\n";
      return 1;
    }
    result = harness::run_sweep(
        spec, options, [&](const std::string& request, std::string& reply) {
          return client.roundtrip(request, reply);
        });
  } else {
    options.mode = "in-process";
    options.endpoint = cache_dir;
    service::ServiceConfig config;
    config.cache_dir = cache_dir;
    config.threads = threads;
    service::ExperimentService service(config);
    result = harness::run_sweep(
        spec, options, [&](const std::string& request, std::string& reply) {
          reply = service.handle_line(request).line;
          return std::string{};
        });
  }

  const std::string report = harness::render_sweep_report(spec, options, result);
  std::cout << report << "\n";
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "error: cannot write report to " << json_path << "\n";
      return 1;
    }
    out << report << "\n";
  }

  if (!result.ok()) {
    std::cerr << "error: sweep aborted: " << result.error << "\n";
    return 1;
  }
  if (result.failed_cells > 0) {
    std::cerr << "error: " << result.failed_cells << " cell(s) failed\n";
    return 1;
  }
  return 0;
}
