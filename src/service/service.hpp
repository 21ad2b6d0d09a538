#pragma once
// Experiment service: the long-running front end over the experiment
// registry (harness/experiments.hpp).  One instance owns the two-tier result cache
// and routes newline-delimited JSON requests through its request table.
//
// Every request additionally accepts the observability envelope fields
// "trace": true (echo the request's span tree in the reply — a traced
// computed run's reply also carries its RunProfile), "trace_id": ID
// (caller-supplied correlation id, echoed and logged) and "origin": KIND
// (caller-declared traffic origin, logged; "sweep" run traffic is counted
// in the sweep metrics so operators can see a grid hammering a replica);
// trace.hpp has the span machinery and DESIGN.md the field reference.
// Trace data lives only in reply envelopes and log files — never inside a
// cached result record, whose bytes stay a pure function of the run inputs.
//
// Runs cover both experiment families (error-rate and chain-profile); the
// registry resolves, encodes, checks and describes each record's key and
// renders its bytes (harness::record_key, encode_key, record_matches_key,
// describe_experiment, run_record); this service only caches the records.
// Responses are single-line JSON objects with "status": "ok"|"error" (error
// responses also carry a machine-readable "code"); a run response embeds the
// result record verbatim, so the record bytes a client sees are exactly the
// bytes the cache stores (DESIGN.md has the full protocol reference).
//
// The request table (kRequests, service.cpp) is the protocol's schema: one
// row per request names it, its handler, its own fields and whether it is a
// run request.  handle_line does the shared work once, in this order: parse
// the line, read the envelope, look up the row, refuse a run row while
// draining, check the field names against the row, open the ok reply with
// "status" and "request", and call the handler, rendering any error it
// returns.  A handler only reads its own fields (their types and values)
// and fills in its reply.  Parsing is strict in the cli.hpp tradition:
// malformed JSON, an unknown request name, an unknown field and a wrong
// field type are all errors, so a typo'd field never silently runs a
// different experiment.  Adding a request means one row, one handler and
// one DESIGN.md subsection; the protocol-doc tests hold DESIGN.md to the
// table's names and to each row's fields.
//
// Timeouts: a run (or run-batch) request may carry "timeout_ms", and the
// daemon may set a default (ServiceConfig::timeout_ms).  The request's
// deadline and the service's one drain flag form a harness::RunStop that
// every place a run waits checks directly — the engine's shard claim, the
// compute-lease poll and a coalesced follower's wait, all inside
// ResultCache::fetch (cache.hpp), the one cold-key path.  A run that
// reaches it aborts with RunCancelled and the request answers a "timeout"-
// (or, during a drain, "draining"-) coded error; a cancelled run never
// writes a (partial) cache record.
//
// handle_line is thread-safe — the socket server's worker pool calls it
// concurrently; cache access is internally locked and experiment runs
// themselves are independent sharded-engine invocations.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "harness/engine.hpp"
#include "service/cache.hpp"
#include "service/fleet.hpp"
#include "service/metrics.hpp"
#include "service/trace.hpp"

namespace vlcsa::harness {
class JsonObject;
class JsonValue;
}

namespace vlcsa::service {

struct ServiceConfig {
  std::string cache_dir;            // empty = memory tier only
  std::size_t memory_entries = 64;  // LRU capacity; 0 disables the tier
  int threads = 0;                  // engine threads per run (0 = all cores)
  std::uint64_t cache_max_bytes = 0;  // disk-tier byte cap; 0 = unbounded
  int timeout_ms = 0;  // default per-request run deadline; 0 = none
  std::string trace_log{};   // JSONL trace sink (--trace-log); empty = off
  // Trace-log rotate cap: built in (no flag) and generous, but bounded — a
  // cache hit's trace line is ~440 bytes, ~20 MB/s on a busy daemon.
  std::uint64_t trace_log_max_bytes = std::uint64_t{1} << 30;
  std::string access_log{};  // JSONL access sink (--access-log); empty = off
  std::uint64_t access_log_max_bytes = 0;  // rotate cap; 0 = unbounded
  int slow_ms = 0;  // flag requests at/over this wall time; 0 = never
  int lease_stale_ms = 30000;  // fleet: crashed-peer .tmp/.lease takeover age; 0 = never
};

class ExperimentService {
 public:
  explicit ExperimentService(ServiceConfig config);

  struct Reply {
    std::string line;       // one response object, no trailing newline
    bool shutdown = false;  // the request asked the daemon to stop
    bool ok = true;         // "status" was "ok" (metrics bookkeeping)
    bool drain = false;     // the request asked the daemon to drain gracefully
  };

  /// Handles one request line, returning one response line.  Never throws on
  /// malformed input — errors come back as {"status": "error", ...}.
  [[nodiscard]] Reply handle_line(const std::string& line);

  [[nodiscard]] const ServiceConfig& config() const { return config_; }
  [[nodiscard]] ResultCache& cache() { return cache_; }
  [[nodiscard]] ServiceMetrics& metrics() { return metrics_; }

  /// Non-empty when a configured log file (trace_log/access_log) could not
  /// be opened at construction; the daemon front end refuses to start then
  /// rather than silently serving without its logs.
  [[nodiscard]] const std::string& log_error() const { return log_error_; }

  /// Graceful drain (idempotent): from here on, run/run-batch requests
  /// answer a "draining"-coded error while observational requests (list,
  /// metrics, cache-stats, ...) keep working so rotation scripts can watch
  /// the drain converge.  The socket server drives the connection side
  /// (stop accepting, drain deadline — server.hpp).
  void begin_drain();
  [[nodiscard]] bool draining() const { return drain_.draining(); }
  /// Runs currently inside run/run-batch handlers (drain progress).
  [[nodiscard]] std::size_t active_runs() const { return drain_.active_runs(); }
  /// Stops every in-flight (and any later) run — the drain deadline fired;
  /// cancelled runs answer "draining"-coded errors.
  void cancel_active_runs() { drain_.cancel_active_runs(); }

  /// Every request name handle_line dispatches, in documentation order —
  /// the list DESIGN.md's protocol reference is tested against
  /// (tests/service/protocol_doc_test.cpp).
  [[nodiscard]] static std::vector<std::string> request_names();

  /// A request's own fields, as its table row declares them ("request" and
  /// the envelope fields are implied; empty for an unknown name) — what
  /// DESIGN.md's field table for that request must list.
  [[nodiscard]] static std::span<const std::string_view> request_fields(std::string_view name);

  struct RunSpec;         // one validated run request / batch element
  struct RunOutcome;      // what running one spec produced
  struct RequestContext;  // per-request observability state (spans, ids)

 private:
  struct Status;  // a handler's verdict: ok, or an error message and code

  using Request = harness::JsonValue;
  using Response = harness::JsonObject;
  /// A handler fills the response object handle_line opened with
  /// "status": "ok" and "request" (and may flag the Reply), or returns the
  /// error handle_line answers instead.
  using Handler = Status (ExperimentService::*)(const Request& request, RequestContext& ctx,
                                                Response& response, Reply& reply);

  /// One row of the request table (service.cpp), the protocol's schema.
  /// handle_line dispatches through it, checks the request's fields against
  /// it, and gates run rows on the drain; request_names(), request_fields()
  /// and the unknown-request error are read from it.
  struct RequestRow {
    std::string_view name;
    Handler handler;
    std::span<const std::string_view> fields;  // own fields; envelope implied
    bool run = false;  // counted in active_runs(), refused while draining
  };
  static const RequestRow kRequests[];

  // One handler per row, each a Handler.
  Status handle_run(const Request&, RequestContext&, Response&, Reply&);
  Status handle_run_batch(const Request&, RequestContext&, Response&, Reply&);
  Status handle_list(const Request&, RequestContext&, Response&, Reply&);
  Status handle_describe(const Request&, RequestContext&, Response&, Reply&);
  Status handle_cache_stats(const Request&, RequestContext&, Response&, Reply&);
  Status handle_metrics(const Request&, RequestContext&, Response&, Reply&);
  Status handle_metrics_prom(const Request&, RequestContext&, Response&, Reply&);
  Status handle_drain(const Request&, RequestContext&, Response&, Reply&);
  Status handle_shutdown(const Request&, RequestContext&, Response&, Reply&);

  /// Runs one validated spec through ResultCache::fetch, abandoning it once
  /// `stop` (request deadline + drain flag) is reached.
  [[nodiscard]] RunOutcome run_one(const RunSpec& spec, harness::RunStop stop,
                                   RequestContext& ctx);

  /// End-of-request observability: feeds span durations into the per-stage
  /// histograms, assigns a trace id, injects the trace echo into the reply
  /// envelope (never into the embedded record), and writes the trace and
  /// access log lines.  A single early-exit branch when nothing is enabled.
  void finalize_request(RequestContext& ctx, std::string_view type, Reply& reply,
                        double wall_seconds);

  /// The stop for a run/run-batch request that started at `start`: its
  /// "timeout_ms" when given (non-zero), else the config default, else no
  /// deadline — plus the drain flag, which every run observes.
  [[nodiscard]] harness::RunStop run_stop(harness::RunStop::Clock::time_point start,
                                          std::uint64_t request_ms) const;

  ServiceConfig config_;
  ResultCache cache_;
  ServiceMetrics metrics_;
  JsonlLog trace_log_;       // per-request span trees (+ profile), JSONL
  JsonlLog access_log_;      // one compact line per request, JSONL
  TraceIdGenerator trace_ids_;
  std::string log_error_;    // see log_error()
  fleet::DrainState drain_;  // graceful-drain flag, run count, stop flag
};

/// The --stdio transport: reads request lines from `in` until EOF or a
/// shutdown/drain request (a one-conversation transport drains by ending the
/// conversation), writing one response line each to `out` (flushed per line,
/// so a pipe peer can converse).  Returns the number of requests handled.
/// Tests and one-shot pipelines use it; the socket transports live in
/// server.hpp.
std::uint64_t serve_stdio(std::istream& in, std::ostream& out, ExperimentService& service);

}  // namespace vlcsa::service
