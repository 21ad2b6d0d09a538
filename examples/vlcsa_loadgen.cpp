// vlcsa_loadgen — load generator for the experiment service daemon: replays
// a recorded request trace (one protocol request line per file line) against
// a running vlcsa_serve at configurable concurrency and reports
// client-observed latency quantiles and error counts as one machine-readable
// JSON object — the SLO harness CI pins the service smoke on (BENCH_service
// artifact).  Runbook in docs/OPERATIONS.md.
//
//   $ ./build/examples/vlcsa_loadgen --socket=/tmp/vlcsa.sock
//         --trace=trace.jsonl --repeat=10 --concurrency=8
//         --json=BENCH_service.json --slo-p99-ms=250
//
// Every worker owns one connection and pulls the next trace line off a
// shared counter, so the replay order interleaves exactly like production
// traffic would.  Exit status: 0 = replay clean (and SLO met, when given),
// 1 = protocol errors / SLO exceeded / transport failure, 2 = usage error.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "harness/cli.hpp"
#include "harness/json.hpp"
#include "harness/report.hpp"
#include "service/metrics.hpp"
#include "service/server.hpp"
#include "service/trace.hpp"

using namespace vlcsa;

namespace {

void print_usage(const service::ClientFlags& connection) {
  std::cout
      << "usage: vlcsa_loadgen (--socket=PATH | --tcp=HOST:PORT) --trace=FILE\n"
         "                     [--repeat=N] [--concurrency=N] [--json=FILE]\n"
         "                     [--timeout-ms=N] [--connect-timeout-ms=N]\n"
         "                     [--slo-p99-ms=MS] [--trace-log=FILE]\n"
         "                     [--retries=N] [--retry-base-ms=T]\n"
      << connection.usage()
      << "  --trace       request trace: one protocol request line per line\n"
         "                (shutdown requests are rejected — a load test must\n"
         "                not stop the daemon it measures)\n"
         "  --repeat      replay the whole trace this many times (default 1)\n"
         "  --concurrency worker connections replaying in parallel (default 1)\n"
         "  --json        also write the report object to this file\n"
         "  --timeout-ms  per-roundtrip I/O deadline (default 0 = wait forever)\n"
         "  --slo-p99-ms  fail (exit 1) when client-observed p99 exceeds this\n"
         "                (default 0 = no SLO check)\n"
         "  --trace-log   the daemon's --trace-log file: stamp every replayed\n"
         "                request with a unique trace_id, then check each one\n"
         "                resolved to a complete span tree in that log and\n"
         "                report the per-stage time breakdown (stage_totals_ms)\n"
         "exit status: 0 clean replay, 1 errors/SLO miss/trace-log validation\n"
         "             failure, 2 usage error\n";
}

struct WorkerResult {
  std::vector<double> latencies_seconds;
  std::uint64_t ok = 0;
  std::uint64_t error_status = 0;     // well-formed {"status": "error"} replies
  std::uint64_t protocol_errors = 0;  // transport failures / malformed replies
  std::uint64_t retries = 0;          // backoff retries taken (--retries)
  std::string first_error;            // what the first protocol error said
};

/// The exact q-quantile of a sorted sample (nearest-rank method).
double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size());
  std::size_t index = static_cast<std::size_t>(rank);
  if (static_cast<double>(index) < rank) ++index;  // ceil
  if (index == 0) index = 1;
  return sorted[std::min(index, sorted.size()) - 1];
}

/// Checks one trace-log line's span array for well-formedness: exactly one
/// depth-0 root named "request" (first in the array), depths that follow the
/// open order (a span's depth equals its parents on the stack), every child
/// interval contained in its parent's, and every non-root span named after a
/// registered service stage.  Returns "" or what is wrong, and accumulates
/// per-stage microseconds into `stage_totals_us` (pre-seeded with every
/// stage_names() entry, so a stage the daemon never hit — e.g. lease-wait on
/// a single-replica run — still reports as a zero row instead of vanishing).
std::string check_span_tree(const std::vector<service::TraceSpan>& spans,
                            std::vector<std::pair<std::string, std::uint64_t>>& stage_totals_us) {
  if (spans.empty()) return "no spans";
  if (spans.front().depth != 0 || spans.front().name != "request") {
    return "first span is not a depth-0 'request' root";
  }
  std::vector<const service::TraceSpan*> stack;
  for (const service::TraceSpan& span : spans) {
    if (&span != &spans.front() && span.depth == 0) return "more than one root span";
    const auto depth = static_cast<std::size_t>(span.depth);
    while (stack.size() > depth) stack.pop_back();
    if (stack.size() != depth) {
      return "span '" + span.name + "' skips a nesting level";
    }
    if (!stack.empty()) {
      const service::TraceSpan& parent = *stack.back();
      if (span.start_us < parent.start_us ||
          span.start_us + span.dur_us > parent.start_us + parent.dur_us) {
        return "span '" + span.name + "' is not contained in its parent '" + parent.name + "'";
      }
      bool found = false;
      for (auto& [name, total] : stage_totals_us) {
        if (name == span.name) {
          total += span.dur_us;
          found = true;
          break;
        }
      }
      // Any stage the service can emit was pre-seeded, so an unmatched name
      // is a span this validator does not know — fail loudly instead of
      // silently folding it in (the gate that let lease-wait go unvalidated
      // when the fleet PR introduced it).
      if (!found) {
        return "span '" + span.name + "' is not a registered service stage";
      }
    }
    stack.push_back(&span);
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  service::ClientFlags connection("--socket");
  connection.options.connect_timeout_ms = 2000;
  std::string trace_path;
  std::string json_path;
  std::string daemon_trace_log;
  int repeat = 1;
  int concurrency = 1;
  int slo_p99_ms = 0;

  std::vector<harness::ValueFlag> flags = {
      {"--trace",
       [&](const std::string& value) {
         if (value.empty()) return false;
         trace_path = value;
         return true;
       }},
      {"--json",
       [&](const std::string& value) {
         if (value.empty()) return false;
         json_path = value;
         return true;
       }},
      {"--repeat",
       [&](const std::string& value) {
         return harness::parse_nonnegative_int(value, repeat) && repeat > 0;
       }},
      {"--concurrency",
       [&](const std::string& value) {
         return harness::parse_nonnegative_int(value, concurrency) && concurrency > 0;
       }},
      {"--timeout-ms",
       [&](const std::string& value) {
         return harness::parse_nonnegative_int(value, connection.options.io_timeout_ms);
       }},
      {"--slo-p99-ms",
       [&](const std::string& value) {
         return harness::parse_nonnegative_int(value, slo_p99_ms);
       }},
      {"--trace-log",
       [&](const std::string& value) {
         if (value.empty()) return false;
         daemon_trace_log = value;
         return true;
       }},
  };
  for (harness::ValueFlag& row : connection.rows()) flags.push_back(std::move(row));

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(connection);
      return 0;
    }
  }
  if (const std::string error = harness::parse_value_flags(
          argc, const_cast<const char* const*>(argv), flags);
      !error.empty()) {
    std::cerr << "error: " << error << "\n";
    print_usage(connection);
    return 2;
  }
  if (const std::string error = connection.check(/*endpoint_required=*/true); !error.empty()) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }
  if (trace_path.empty()) {
    std::cerr << "error: --trace=FILE is required\n";
    return 2;
  }

  // Load and vet the trace up front: every line must be a parseable request
  // object, and none may be a shutdown (a load test must not stop the daemon
  // it measures mid-replay).
  std::vector<std::string> trace;
  std::vector<bool> injectable;  // parallel to trace: can take a trace_id
  {
    std::ifstream in(trace_path);
    if (!in) {
      std::cerr << "error: cannot open trace file " << trace_path << "\n";
      return 2;
    }
    std::string line;
    std::size_t line_number = 0;
    while (std::getline(in, line)) {
      ++line_number;
      if (line.empty()) continue;
      const harness::JsonParse parsed = harness::parse_json(line);
      if (!parsed.ok()) {
        std::cerr << "error: " << trace_path << ":" << line_number
                  << ": malformed request: " << parsed.error << "\n";
        return 2;
      }
      const harness::JsonValue* request = parsed.value.find("request");
      if (request != nullptr && request->kind() == harness::JsonValue::Kind::kString &&
          request->as_string() == "shutdown") {
        std::cerr << "error: " << trace_path << ":" << line_number
                  << ": shutdown requests are not replayable\n";
        return 2;
      }
      // A trace_id can be stamped onto a non-empty object line that does not
      // carry one already (splicing after the opening brace keeps the rest
      // of the line byte-identical to what was recorded).
      injectable.push_back(parsed.value.kind() == harness::JsonValue::Kind::kObject &&
                           !parsed.value.members().empty() && line.front() == '{' &&
                           parsed.value.find("trace_id") == nullptr);
      trace.push_back(line);
    }
  }
  if (trace.empty()) {
    std::cerr << "error: trace file " << trace_path << " has no request lines\n";
    return 2;
  }

  const std::uint64_t total_requests =
      static_cast<std::uint64_t>(trace.size()) * static_cast<std::uint64_t>(repeat);
  std::atomic<std::uint64_t> next{0};
  std::vector<WorkerResult> results(static_cast<std::size_t>(concurrency));

  // Per-run trace-id prefix: wall-clock millisecond stamp keeps ids from
  // successive loadgen runs distinct in a shared daemon log; the request
  // index makes each replayed instance unique within this run.
  std::string id_prefix;
  if (!daemon_trace_log.empty()) {
    char stamp[32];
    std::snprintf(stamp, sizeof(stamp), "lg-%llx-",
                  static_cast<unsigned long long>(
                      std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::system_clock::now().time_since_epoch())
                          .count()));
    id_prefix = stamp;
  }

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(concurrency));
  for (int w = 0; w < concurrency; ++w) {
    workers.emplace_back([&, w] {
      WorkerResult& result = results[static_cast<std::size_t>(w)];
      service::ServiceClient client(connection.options);
      if (const std::string error = client.connect_or_error();
          !error.empty() && connection.options.retry.attempts == 0) {
        // With a retry budget the per-request roundtrip redials; without one
        // the worker is dead on arrival.
        ++result.protocol_errors;
        result.first_error = error;
        return;
      }
      while (true) {
        const std::uint64_t index = next.fetch_add(1, std::memory_order_relaxed);
        if (index >= total_requests) return;
        std::string request = trace[index % trace.size()];
        if (!id_prefix.empty() && injectable[index % trace.size()]) {
          request.insert(1, "\"trace_id\": \"" + id_prefix + std::to_string(index) + "\", ");
        }
        std::string response;
        const auto sent = Clock::now();
        const std::string error = client.roundtrip(request, response, &result.retries);
        result.latencies_seconds.push_back(
            std::chrono::duration<double>(Clock::now() - sent).count());
        if (!error.empty()) {
          ++result.protocol_errors;
          if (result.first_error.empty()) result.first_error = error;
          return;  // the connection is gone; this worker is done
        }
        const harness::JsonParse parsed = harness::parse_json(response);
        const harness::JsonValue* status =
            parsed.ok() ? parsed.value.find("status") : nullptr;
        if (status == nullptr || status->kind() != harness::JsonValue::Kind::kString) {
          ++result.protocol_errors;
          if (result.first_error.empty()) {
            result.first_error = "response without a string 'status': " + response;
          }
        } else if (status->as_string() == "ok") {
          ++result.ok;
        } else {
          ++result.error_status;
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  const double wall = std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<double> latencies;
  std::uint64_t ok = 0;
  std::uint64_t error_status = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t retries_seen = 0;
  std::string first_error;
  for (const WorkerResult& result : results) {
    latencies.insert(latencies.end(), result.latencies_seconds.begin(),
                     result.latencies_seconds.end());
    ok += result.ok;
    error_status += result.error_status;
    protocol_errors += result.protocol_errors;
    retries_seen += result.retries;
    if (first_error.empty()) first_error = result.first_error;
  }
  std::sort(latencies.begin(), latencies.end());

  const double p50_ms = quantile_sorted(latencies, 0.50) * 1e3;
  const double p95_ms = quantile_sorted(latencies, 0.95) * 1e3;
  const double p99_ms = quantile_sorted(latencies, 0.99) * 1e3;
  const double max_ms = latencies.empty() ? 0.0 : latencies.back() * 1e3;

  // Trace-log validation: every trace_id this run stamped must resolve to
  // exactly one log line with a complete, well-nested span tree — the check
  // CI gates on — and the span durations aggregate into the per-stage
  // breakdown the report carries.  Skipped when the replay itself already
  // failed (those ids never reached the daemon).
  std::string trace_log_error;
  std::uint64_t traced_requests = 0;
  // Pre-seeded with the service's full stage vocabulary: stages that never
  // fired stay as zero rows (stage_totals_ms keys are stable across runs)
  // and any span outside this set fails validation.
  std::vector<std::pair<std::string, std::uint64_t>> stage_totals_us;
  for (const std::string& stage : service::ServiceMetrics::stage_names()) {
    stage_totals_us.emplace_back(stage, 0);
  }
  if (!daemon_trace_log.empty() && protocol_errors == 0) {
    std::unordered_set<std::string> expected;
    for (std::uint64_t index = 0; index < total_requests; ++index) {
      if (injectable[index % trace.size()]) expected.insert(id_prefix + std::to_string(index));
    }
    std::ifstream in(daemon_trace_log);
    if (!in) {
      trace_log_error = "cannot open daemon trace log " + daemon_trace_log;
    } else {
      std::string line;
      std::size_t line_number = 0;
      while (trace_log_error.empty() && std::getline(in, line)) {
        ++line_number;
        if (line.empty()) continue;
        const harness::JsonParse parsed = harness::parse_json(line);
        if (!parsed.ok()) {
          trace_log_error = daemon_trace_log + ":" + std::to_string(line_number) +
                            ": malformed trace line: " + parsed.error;
          break;
        }
        const harness::JsonValue* id = parsed.value.find("trace_id");
        if (id == nullptr || id->kind() != harness::JsonValue::Kind::kString ||
            id->as_string().compare(0, id_prefix.size(), id_prefix) != 0) {
          continue;  // another client's request (or a pre-existing line)
        }
        if (expected.erase(id->as_string()) == 0) {
          trace_log_error = daemon_trace_log + ":" + std::to_string(line_number) +
                            ": duplicate or unexpected trace_id " + id->as_string();
          break;
        }
        ++traced_requests;
        std::vector<service::TraceSpan> spans;
        std::string error = service::parse_spans(parsed.value, spans);
        if (error.empty()) error = check_span_tree(spans, stage_totals_us);
        if (!error.empty()) {
          trace_log_error = daemon_trace_log + ":" + std::to_string(line_number) + ": " + error;
        }
      }
      if (trace_log_error.empty() && !expected.empty()) {
        trace_log_error = std::to_string(expected.size()) +
                          " replayed request(s) never appeared in " + daemon_trace_log +
                          " (first missing: " + *expected.begin() + ")";
      }
    }
  }

  harness::JsonObject report;
  report.add("schema", "vlcsa-loadgen-4");
  const service::Endpoint& endpoint = connection.options.endpoint;
  report.add("transport", endpoint.kind == service::Endpoint::Kind::kTcp ? "tcp" : "unix");
  report.add("endpoint", endpoint.describe());
  report.add("trace", trace_path);
  report.add("trace_lines", static_cast<std::uint64_t>(trace.size()));
  report.add("repeat", repeat);
  report.add("concurrency", concurrency);
  report.add("total_requests", total_requests);
  report.add("completed", static_cast<std::uint64_t>(latencies.size()));
  report.add("ok", ok);
  report.add("error_status", error_status);
  report.add("protocol_errors", protocol_errors);
  report.add("retries_seen", retries_seen);
  report.add("wall_seconds", wall);
  report.add("qps", wall > 0.0 ? static_cast<double>(latencies.size()) / wall : 0.0);
  report.add("latency_p50_ms", p50_ms);
  report.add("latency_p95_ms", p95_ms);
  report.add("latency_p99_ms", p99_ms);
  report.add("latency_max_ms", max_ms);
  if (slo_p99_ms > 0) {
    report.add("slo_p99_ms", slo_p99_ms);
    report.add("slo_met", p99_ms <= static_cast<double>(slo_p99_ms));
  }
  if (!daemon_trace_log.empty()) {
    report.add("trace_log", daemon_trace_log);
    report.add("traced_requests", traced_requests);
    report.add("trace_log_ok", trace_log_error.empty() && protocol_errors == 0);
    harness::JsonObject stages;
    for (const auto& [name, total_us] : stage_totals_us) {
      stages.add(name, static_cast<double>(total_us) * 1e-3);
    }
    report.add_json("stage_totals_ms", stages.render_line());
  }
  const std::string line = report.render_line();
  std::cout << line << "\n";
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "error: cannot write report to " << json_path << "\n";
      return 1;
    }
    out << line << "\n";
  }

  if (protocol_errors > 0) {
    std::cerr << "error: " << protocol_errors << " protocol error(s); first: " << first_error
              << "\n";
    return 1;
  }
  if (slo_p99_ms > 0 && p99_ms > static_cast<double>(slo_p99_ms)) {
    std::cerr << "error: p99 " << p99_ms << " ms exceeds SLO " << slo_p99_ms << " ms\n";
    return 1;
  }
  if (!trace_log_error.empty()) {
    std::cerr << "error: trace-log validation failed: " << trace_log_error << "\n";
    return 1;
  }
  return 0;
}
