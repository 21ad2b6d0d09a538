#pragma once
// Request tracing and structured JSONL logs for the experiment service
// (service.hpp): the per-request span collector behind the protocol's
// "trace": true echo and the daemon's --trace-log, the rotating JSONL sink
// shared by --trace-log/--access-log, and the process-unique trace-id
// generator.
//
// Everything here is observability output: spans, trace ids and log lines
// live only in responses and log files, never inside a cached result record
// — the determinism contract (records are pure functions of (experiment,
// samples, seed, eval path)) keeps wall time out of results, and the service
// injects trace fields into the already-rendered reply envelope so the
// embedded record bytes stay untouched.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace vlcsa::harness {
class JsonValue;
}  // namespace vlcsa::harness

namespace vlcsa::service {

/// One span of a request trace: [start_us, start_us + dur_us), microseconds
/// relative to the request's arrival, nested by depth (the root "request"
/// span is depth 0 and covers the whole line).  Both endpoints are floored
/// to the microsecond from the same clock origin, so a child's interval is
/// always contained in its parent's — the span-tree invariant
/// vlcsa_loadgen --trace-log validates.
struct TraceSpan {
  std::string name;
  int depth = 0;
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
};

/// Span collector for one request.  Disabled by default — open/close are
/// no-ops costing one branch — and enabled by the service only when a sink
/// wants the spans (--trace-log configured, or the request asked for an
/// echo), which is what keeps the cached-hit hot path overhead-free
/// (measured by perf_microbench's BM_ServiceCachedHit/0 and perfbench's
/// service.handle_line_nolog_us).  Not thread-safe: one request is traced
/// by the one worker thread handling it.
class RequestTrace {
 public:
  using Clock = std::chrono::steady_clock;

  /// Starts collecting; the clock origin is the first enable() call.
  void enable();
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span, returning its handle (0 when disabled — close() ignores
  /// handles opened while disabled).
  std::size_t open(const char* name);
  /// Closes the span `handle` opened by open().
  void close(std::size_t handle);

  /// RAII span for the common scoped case.
  class Scope {
   public:
    Scope(RequestTrace& trace, const char* name)
        : trace_(trace), handle_(trace.open(name)) {}
    ~Scope() { trace_.close(handle_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    RequestTrace& trace_;
    std::size_t handle_;
  };

  [[nodiscard]] const std::vector<TraceSpan>& spans() const { return spans_; }

  /// [{"name": ..., "depth": ..., "start_us": ..., "dur_us": ...}, ...] —
  /// one valid JSON array (empty when disabled), embeddable via add_json.
  [[nodiscard]] std::string render_spans() const;

 private:
  bool enabled_ = false;
  int depth_ = 0;  // current nesting depth (open spans)
  Clock::time_point start_{};
  std::vector<TraceSpan> spans_;
};

/// Reads back what render_spans writes: the "spans" array member of a parsed
/// reply envelope or trace-log line, appended to `out` in document order.
/// Strict — a missing array, a non-object span, a span without a string
/// name or without integer depth/start_us/dur_us is an error.  Returns "" or
/// what is wrong.
[[nodiscard]] std::string parse_spans(const harness::JsonValue& object,
                                      std::vector<TraceSpan>& out);

/// Append-only JSONL sink shared by --trace-log and --access-log: one line
/// per write under a mutex, flushed per line so a tail -f (or the CI smoke)
/// sees complete lines.  Optional size-capped rotation: when a write would
/// push the file past `max_bytes`, it is renamed to "<path>.1" (replacing
/// the previous generation) and reopened — one generation of history,
/// bounded disk.
class JsonlLog {
 public:
  /// Opens `path` for appending; returns "" or an error message.
  /// `max_bytes` 0 disables rotation.
  [[nodiscard]] std::string open(const std::string& path, std::uint64_t max_bytes = 0);
  [[nodiscard]] bool enabled() const { return !path_.empty(); }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Writes one line (newline appended here); thread-safe.
  void write(const std::string& line);

 private:
  std::mutex mutex_;
  std::string path_;
  std::uint64_t max_bytes_ = 0;
  std::uint64_t bytes_ = 0;  // current file size (tracked, not re-stat'd)
  std::ofstream out_;
};

/// Process-unique trace ids: "t-<epoch-us hex>-<counter>".  The prefix is
/// drawn from the wall clock once per generator (per daemon), so ids from
/// successive daemon runs stay distinct in a shared or rotated log; the
/// counter makes ids unique within a run.
class TraceIdGenerator {
 public:
  TraceIdGenerator();
  [[nodiscard]] std::string next();

 private:
  std::string prefix_;
  std::atomic<std::uint64_t> counter_{0};
};

}  // namespace vlcsa::service
