#include "service/service.hpp"

#include <chrono>
#include <exception>
#include <initializer_list>
#include <istream>
#include <iterator>
#include <optional>
#include <ostream>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/engine.hpp"
#include "harness/experiments.hpp"
#include "harness/json.hpp"
#include "harness/report.hpp"

namespace vlcsa::service {

/// Per-request observability state, threaded from handle_line through the
/// handlers: the span collector, the trace id, and the fields the trace and
/// access logs report.  One instance per request line, stack-owned by
/// handle_line — never shared between requests.
struct ExperimentService::RequestContext {
  RequestTrace trace;
  std::string trace_id;        // request-supplied, else generated in finalize
  bool echo = false;           // "trace": true — echo spans in the reply
  std::string origin;          // caller-declared traffic origin (e.g. "sweep")
  std::string experiment;      // run requests: the experiment name
  std::string cache;           // run requests: hit-memory/hit-disk/miss/coalesced
  const char* code = nullptr;  // error code when the reply is an error
  std::string profile_json;    // a traced computed lone run's RunProfile, rendered
};

namespace {

using harness::check_fields;
using harness::JsonObject;
using harness::JsonValue;

/// Machine-readable error classes (the "code" field of error responses);
/// DESIGN.md's protocol reference documents the full set.
constexpr const char* kCodeBadRequest = "bad-request";
constexpr const char* kCodeUnknownRequest = "unknown-request";
constexpr const char* kCodeUnknownExperiment = "unknown-experiment";
constexpr const char* kCodeTimeout = "timeout";
constexpr const char* kCodeInternal = "internal";
constexpr const char* kCodeDraining = "draining";

/// Upper bound on any request-supplied timeout_ms (24 hours): large enough
/// for any real run, small enough to survive the milliseconds-as-int cast —
/// an overflowing value must be rejected, never silently disable the
/// deadline.
constexpr std::uint64_t kMaxTimeoutMs = 86'400'000;

ExperimentService::Reply error_reply(ExperimentService::RequestContext& ctx,
                                     const std::string& message,
                                     const char* code = kCodeBadRequest) {
  ctx.code = code;  // surfaces in the access/trace log line for this request
  JsonObject response;
  response.add("status", "error");
  response.add("code", code);
  response.add("error", message);
  return {response.render_line(), false, false};
}

/// Optional unsigned-integer field; "" or an error message.
std::string read_u64_field(const JsonValue& request, const char* name, std::uint64_t& out,
                           bool& given) {
  const JsonValue* field = request.find(name);
  given = field != nullptr;
  if (field == nullptr) return {};
  if (!field->to_u64(out)) {
    return std::string("field '") + name + "' must be a non-negative integer";
  }
  return {};
}

/// Optional string field; "" or an error message.
std::string read_string_field(const JsonValue& request, const char* name, std::string& out,
                              bool& given) {
  const JsonValue* field = request.find(name);
  given = field != nullptr;
  if (field == nullptr) return {};
  if (field->kind() != JsonValue::Kind::kString) {
    return std::string("field '") + name + "' must be a string";
  }
  out = field->as_string();
  return {};
}

/// Reads the observability envelope fields every top-level request accepts:
/// "trace" (bool — echo the span tree in the reply), "trace_id" (string —
/// caller-supplied correlation id) and "origin" (string — what kind of
/// caller this traffic comes from, e.g. "sweep"; logged, and counted in the
/// sweep metrics for run traffic).  "" or an error message.
std::string read_trace_envelope(const JsonValue& request,
                                ExperimentService::RequestContext& ctx) {
  const JsonValue* flag = request.find("trace");
  if (flag != nullptr) {
    if (flag->kind() != JsonValue::Kind::kBool) return "field 'trace' must be a boolean";
    ctx.echo = flag->as_bool();
    if (ctx.echo) ctx.trace.enable();
  }
  const JsonValue* id = request.find("trace_id");
  if (id != nullptr) {
    if (id->kind() != JsonValue::Kind::kString) return "field 'trace_id' must be a string";
    ctx.trace_id = id->as_string();
    if (ctx.trace_id.empty()) return "field 'trace_id' must be non-empty";
  }
  const JsonValue* origin = request.find("origin");
  if (origin != nullptr) {
    if (origin->kind() != JsonValue::Kind::kString) return "field 'origin' must be a string";
    ctx.origin = origin->as_string();
    if (ctx.origin.empty()) return "field 'origin' must be non-empty";
  }
  return {};
}

/// ["a", "b", ...] — string-array rendering for list responses.
std::string render_string_array(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + harness::json_escape(values[i]) + "\"";
  }
  out += "]";
  return out;
}

/// [{...}, {...}] — array of pre-rendered objects (run-batch results).
std::string render_object_array(const std::vector<std::string>& rendered) {
  std::string out = "[";
  for (std::size_t i = 0; i < rendered.size(); ++i) {
    if (i != 0) out += ", ";
    out += rendered[i];
  }
  out += "]";
  return out;
}

const char* tier_name(ResultCache::Tier tier) {
  switch (tier) {
    case ResultCache::Tier::kMemory: return "hit-memory";
    case ResultCache::Tier::kDisk: return "hit-disk";
    case ResultCache::Tier::kMiss: return "miss";
  }
  return "?";
}

}  // namespace

/// One validated run request (or run-batch element).
struct ExperimentService::RunSpec {
  std::string experiment;
  std::uint64_t samples = 0;  // 0 = not given (the experiment default)
  std::uint64_t seed = 1;
  std::optional<harness::EvalPath> path;  // unset = not given
  std::uint64_t timeout_ms = 0;  // request-level override; 0 = not given
};

/// What running one spec produced: either `error` (+ `code`) or a record.
struct ExperimentService::RunOutcome {
  std::string error;  // empty = success
  const char* code = kCodeBadRequest;
  ResultCache::Tier tier = ResultCache::Tier::kMiss;
  bool coalesced = false;
  std::string record;
  std::string profile_json;  // rendered RunProfile: traced computed runs only
};

namespace {

/// Optional "timeout_ms" (run and run-batch requests alike): `out` stays 0
/// when absent; "" or an error message.
std::string read_timeout_ms(const JsonValue& request, std::uint64_t& out) {
  bool given = false;
  if (std::string error = read_u64_field(request, "timeout_ms", out, given); !error.empty()) {
    return error;
  }
  if (given && out == 0) {
    return "field 'timeout_ms' must be positive (omit it for the server default)";
  }
  if (given && out > kMaxTimeoutMs) {
    return "field 'timeout_ms' must be at most 86400000 (24 hours)";
  }
  return {};
}

/// Parses/validates one run spec's fields.  `allowed` differs between a
/// top-level run request ("request"/"timeout_ms" permitted) and a run-batch
/// element (bare spec only); "" or an error message.
std::string read_run_spec(const JsonValue& request,
                          std::initializer_list<std::string_view> allowed,
                          ExperimentService::RunSpec& out) {
  if (std::string error = check_fields(request, allowed, "for this request");
      !error.empty()) {
    return error;
  }
  bool given = false;
  if (std::string error = read_string_field(request, "experiment", out.experiment, given);
      !error.empty()) {
    return error;
  }
  if (!given || out.experiment.empty()) return "run requires field 'experiment'";
  if (std::string error = read_u64_field(request, "samples", out.samples, given);
      !error.empty()) {
    return error;
  }
  if (given && out.samples == 0) {
    return "field 'samples' must be positive (omit it for the experiment default)";
  }
  if (std::string error = read_u64_field(request, "seed", out.seed, given); !error.empty()) {
    return error;
  }
  std::string path_text;
  if (std::string error = read_string_field(request, "eval_path", path_text, given);
      !error.empty()) {
    return error;
  }
  if (given && !harness::parse_eval_path(path_text, out.path.emplace())) {
    return "field 'eval_path' must be \"batched\" or \"scalar\"";
  }
  return read_timeout_ms(request, out.timeout_ms);
}

}  // namespace

ExperimentService::ExperimentService(ServiceConfig config)
    : config_(std::move(config)),
      cache_(config_.cache_dir, config_.memory_entries, config_.cache_max_bytes,
             config_.lease_stale_ms) {
  if (!config_.trace_log.empty()) {
    log_error_ = trace_log_.open(config_.trace_log, config_.trace_log_max_bytes);
  }
  if (!config_.access_log.empty()) {
    std::string error = access_log_.open(config_.access_log, config_.access_log_max_bytes);
    if (!error.empty()) {
      log_error_ = log_error_.empty() ? std::move(error) : log_error_ + "; " + error;
    }
  }
}

// The request table, in documentation order: DESIGN.md's protocol reference
// must list exactly these names (the protocol-doc test diffs them).
const ExperimentService::RequestRow ExperimentService::kRequests[] = {
    {"run", &ExperimentService::handle_run},
    {"run-batch", &ExperimentService::handle_run_batch},
    {"list", &ExperimentService::handle_list},
    {"describe", &ExperimentService::handle_describe},
    {"cache-stats", &ExperimentService::handle_cache_stats},
    {"metrics", &ExperimentService::handle_metrics},
    {"metrics-prom", &ExperimentService::handle_metrics_prom},
    {"drain", &ExperimentService::handle_drain},
    {"shutdown", &ExperimentService::handle_shutdown},
};

std::vector<std::string> ExperimentService::request_names() {
  std::vector<std::string> names;
  for (const RequestRow& row : kRequests) names.emplace_back(row.name);
  return names;
}

void ExperimentService::begin_drain() {
  drain_.begin();
  metrics_.set_draining(true);
}

ExperimentService::Reply ExperimentService::handle_line(const std::string& line) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  const ServiceMetrics::InFlight in_flight(metrics_);

  RequestContext ctx;
  // Tracing turns on only when someone wants the spans: a configured
  // --trace-log, or a request carrying "trace"/"trace_id" (strict JSON
  // quotes keys, so the substring test is a safe pre-parse filter — a false
  // positive merely collects spans nobody renders).  When neither holds,
  // every span site below costs a single predictable branch; the cached-hit
  // path is measured against that claim by perf_microbench's
  // BM_ServiceCachedHit/0 and perfbench's service.handle_line_nolog_us.
  if (trace_log_.enabled() || line.find("\"trace") != std::string::npos) {
    ctx.trace.enable();
  }
  const std::size_t root = ctx.trace.open("request");

  std::string type = "invalid";
  Reply reply;
  harness::JsonParse parse;
  {
    const RequestTrace::Scope parse_scope(ctx.trace, "parse");
    parse = harness::parse_json(line);
  }
  std::string envelope_error;
  if (!parse.ok()) {
    reply = error_reply(ctx, "malformed request: " + parse.error);
  } else if (parse.value.kind() != JsonValue::Kind::kObject) {
    reply = error_reply(ctx, "request must be a JSON object");
  } else if (envelope_error = read_trace_envelope(parse.value, ctx);
             !envelope_error.empty()) {
    reply = error_reply(ctx, envelope_error);
  } else {
    const JsonValue* request_field = parse.value.find("request");
    if (request_field == nullptr || request_field->kind() != JsonValue::Kind::kString) {
      reply = error_reply(ctx, "missing string field 'request'");
    } else {
      const std::string& request = request_field->as_string();
      const RequestRow* row = nullptr;
      for (const RequestRow& candidate : kRequests) {
        if (request == candidate.name) {
          row = &candidate;
          break;
        }
      }
      if (row == nullptr) {
        // "run, run-batch, ..., drain or shutdown"
        static const std::string kExpected = [] {
          std::string names;
          for (std::size_t i = 0; i < std::size(kRequests); ++i) {
            if (i > 0) names += i + 1 == std::size(kRequests) ? " or " : ", ";
            names += kRequests[i].name;
          }
          return names;
        }();
        reply = error_reply(ctx, "unknown request '" + request + "' (expected " + kExpected + ")",
                            kCodeUnknownRequest);
      } else {
        type = row->name;
        // A daemon must outlive any single request: anything a handler
        // throws (engine failures, rethrown leader exceptions from the
        // single-flight latch) becomes an error reply, never a dead server.
        try {
          reply = (this->*row->handler)(parse.value, ctx);
        } catch (const std::exception& error) {
          reply =
              error_reply(ctx, std::string("internal error: ") + error.what(), kCodeInternal);
        }
      }
    }
  }

  ctx.trace.close(root);
  const double wall = std::chrono::duration<double>(Clock::now() - start).count();
  finalize_request(ctx, type, reply, wall);
  // One metrics update per request: the counters, the latency histogram and
  // the per-stage histograms fed from the span durations.
  metrics_.record_request(type, reply.ok, wall, ctx.trace.spans());
  return reply;
}

void ExperimentService::finalize_request(RequestContext& ctx, const std::string& type,
                                         Reply& reply, double wall_seconds) {
  if (!ctx.trace.enabled() && !access_log_.enabled()) return;

  if (ctx.trace_id.empty()) ctx.trace_id = trace_ids_.next();
  const bool slow =
      config_.slow_ms > 0 && wall_seconds * 1e3 >= static_cast<double>(config_.slow_ms);

  // The span tree is rendered once; the echo and the trace line share it.
  // Both extend an already-rendered object whose closing brace the caller
  // dropped: `, "spans": [...]` (+ `, "profile": {...}`) and the brace.
  const bool echo = ctx.echo && !reply.line.empty() && reply.line.back() == '}';
  std::string spans;
  if (echo || trace_log_.enabled()) spans = ctx.trace.render_spans();
  const auto close_with_spans = [&](std::string& line) {
    line += ", \"spans\": ";
    line += spans;
    if (!ctx.profile_json.empty()) {
      line += ", \"profile\": ";
      line += ctx.profile_json;
    }
    line += '}';
  };

  // The echo goes into the already-rendered reply envelope, in front of its
  // closing brace — the embedded record bytes stay untouched, keeping the
  // determinism contract (cached records never carry wall time or spans).
  // A traced engine run's profile rides along, so a sweep or client can
  // attribute a computed run without tailing the daemon's trace log.
  if (echo) {
    reply.line.pop_back();
    reply.line += ", \"trace_id\": \"";
    harness::append_json_escaped(reply.line, ctx.trace_id);
    reply.line += '"';
    close_with_spans(reply.line);
  }

  if (!trace_log_.enabled() && !access_log_.enabled()) return;
  const double timestamp =
      std::chrono::duration<double>(std::chrono::system_clock::now().time_since_epoch())
          .count();
  JsonObject entry;
  entry.add("ts", timestamp);
  entry.add("trace_id", ctx.trace_id);
  entry.add("type", type);
  if (!ctx.origin.empty()) entry.add("origin", ctx.origin);
  if (!ctx.experiment.empty()) entry.add("experiment", ctx.experiment);
  if (!ctx.cache.empty()) entry.add("cache", ctx.cache);
  entry.add("status", reply.ok ? "ok" : "error");
  if (ctx.code != nullptr) entry.add("code", ctx.code);
  entry.add("wall_ms", wall_seconds * 1e3);
  if (slow) entry.add("slow", true);
  std::string line = entry.render_line();
  if (access_log_.enabled()) access_log_.write(line);
  if (trace_log_.enabled()) {
    // The trace line is the access line plus the span tree and, for traced
    // engine runs, the per-shard profile — one self-contained JSONL record
    // per request, which is what lets a slow request be attributed to a
    // stage from the log alone.  It extends the rendered access line in
    // place: the same bytes as rendering the entry again with "spans" (and
    // "profile") added as its last fields.
    line.pop_back();
    close_with_spans(line);
    trace_log_.write(line);
  }
}

harness::RunStop ExperimentService::run_stop(harness::RunStop::Clock::time_point start,
                                            std::uint64_t request_ms) const {
  const int timeout_ms = request_ms != 0 ? static_cast<int>(request_ms) : config_.timeout_ms;
  harness::RunStop stop;
  if (timeout_ms > 0) stop.deadline = start + std::chrono::milliseconds(timeout_ms);
  stop.flag = drain_.stop_flag();
  return stop;
}

ExperimentService::RunOutcome ExperimentService::run_one(const RunSpec& run,
                                                         harness::RunStop stop,
                                                         RequestContext& ctx) {
  RunOutcome out;
  const harness::KeyResolution resolved =
      harness::record_key(run.experiment, run.samples, run.seed, run.path);
  if (resolved.error == harness::KeyError::kUnknownExperiment) {
    out.error = "unknown experiment '" + run.experiment + "' (try \"list\")";
    out.code = kCodeUnknownExperiment;
    return out;
  }
  if (resolved.error == harness::KeyError::kEvalPathOnChainProfile) {
    out.error = "field 'eval_path' only applies to error-rate experiments; '" + run.experiment +
                "' is a chain-profile experiment";
    return out;
  }
  const harness::RecordKey& key = resolved.key;

  // Cancellation wears two hats: a fired per-request deadline (timeout) or
  // a server drain cancelling in-flight runs at its deadline (draining —
  // clients should retry another replica, and it is not a timeout metric).
  const auto cancelled = [this, &out](const std::string& what) {
    if (drain_.draining()) {
      out.error = "draining: " + what + " (server is draining, retry another replica)";
      out.code = kCodeDraining;
    } else {
      metrics_.record_timeout();
      out.error = "timeout: " + what;
      out.code = kCodeTimeout;
    }
  };

  // A stop already reached answers without touching the cache, so a
  // timed-out batch drains its remaining elements in microseconds.
  if (stop.reached()) {
    cancelled("deadline expired before the run started");
    return out;
  }

  // Single-flight: one leader per key does the cache lookup and (on a miss)
  // the one computation; requests arriving while that is in flight wait on
  // the leader's future instead of re-sampling the same experiment in
  // parallel.  The latch is taken before the lookup so the cache counters
  // see exactly one event per non-coalesced request.
  const std::string map_key = harness::encode_key(key, harness::KeyEncoding::kCache);
  std::promise<std::string> promise;
  std::shared_future<std::string> future;
  bool leader = false;
  {
    const std::lock_guard<std::mutex> lock(inflight_mutex_);
    const auto it = inflight_.find(map_key);
    if (it != inflight_.end()) {
      future = it->second;
    } else {
      future = promise.get_future().share();
      inflight_.emplace(map_key, future);
      leader = true;
    }
  }

  ResultCache::Lookup lookup;
  try {
    if (leader) {
      try {
        bool lease_waited = false;
        while (true) {
          {
            const RequestTrace::Scope lookup_scope(ctx.trace, "cache-lookup");
            lookup = cache_.get(key);
          }
          if (lookup.tier != ResultCache::Tier::kMiss) break;
          // Cross-process single-flight (fleet.hpp): replicas sharing one
          // cache dir elect a computer per cold key via a lease file.  kBusy
          // means another replica is already sampling this key — wait for
          // its record (or its crash) instead of duplicating the compute.
          const fleet::ComputeLease lease = cache_.try_acquire_lease(key);
          if (lease.state() == fleet::ComputeLease::State::kBusy) {
            if (!lease_waited) {
              lease_waited = true;  // count once per request, not per poll round
              cache_.record_lease_wait();
            }
            const RequestTrace::Scope wait_scope(ctx.trace, "lease-wait");
            const fleet::LeaseWaitResult wait = fleet::wait_for_lease_release(
                cache_.lease_path(key), cache_.lease_stale_ms(), stop);
            if (wait == fleet::LeaseWaitResult::kCancelled) throw harness::RunCancelled{};
            // kReleased: the holder stored (next lookup hits disk) or failed
            // (next round takes the lease).  kStale: the holder crashed; the
            // next try_acquire_lease reaps it and takes over.  Either way a
            // false takeover is harmless — a concurrent survivor would only
            // rename byte-identical content over byte-identical content.
            continue;
          }
          harness::RunOptions options;
          options.threads = config_.threads;
          options.stop = stop;
          // Profiling rides the tracing switch: collection is on only when a
          // trace wants it, so an untraced run pays one null check per shard
          // and the profile never touches the record either way.
          harness::RunProfileCollector collector;
          if (ctx.trace.enabled()) options.profile = &collector;
          harness::RecordRun computed;
          {
            const RequestTrace::Scope run_scope(ctx.trace, "engine-run");
            computed = harness::run_record(key, options);
          }
          lookup.record = std::move(computed.record);
          if (computed.profile) out.profile_json = harness::render_run_profile(*computed.profile);
          {
            // Only a completed run reaches put(): RunCancelled throws past
            // it, so a timed-out run never writes a partial cache record.
            const RequestTrace::Scope put_scope(ctx.trace, "record-write");
            cache_.put(key, lookup.record);
          }
          // The lease releases here (RAII) — after the record is on disk,
          // so a waiter that sees the release always finds the record.
          break;
        }
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(inflight_mutex_);
          inflight_.erase(map_key);
        }
        promise.set_exception(std::current_exception());
        throw;
      }
      {
        const std::lock_guard<std::mutex> lock(inflight_mutex_);
        inflight_.erase(map_key);
      }
      promise.set_value(lookup.record);
    } else {
      out.coalesced = true;
      const RequestTrace::Scope wait_scope(ctx.trace, "coalesced-wait");
      // A follower enforces its *own* deadline: the leader may have a longer
      // deadline (or none), so the wait is bounded by this request's.  The
      // leader keeps computing — only this reply times out.  A drain needs
      // no wake-up here: the flag stops the in-process leader, whose
      // RunCancelled reaches this follower through the future.
      if (stop.has_deadline() &&
          future.wait_until(stop.deadline) != std::future_status::ready) {
        cancelled("deadline expired while waiting for a coalesced run");
        return out;
      }
      lookup.record = future.get();  // rethrows if the leader failed
      cache_.record_coalesced_hit();
    }
  } catch (const harness::RunCancelled&) {
    // Either our own deadline fired, or we coalesced onto a leader whose
    // deadline fired — the computation is gone either way.
    cancelled("run cancelled before completion");
    return out;
  }

  out.tier = lookup.tier;
  out.record = std::move(lookup.record);
  return out;
}

ExperimentService::Reply ExperimentService::handle_run(const JsonValue& request,
                                                       RequestContext& ctx) {
  // Counted before the draining check: a server that reads active_runs() == 0
  // after begin_drain() then knows every later handler refuses (fleet.hpp).
  const fleet::DrainState::RunScope drain_scope(drain_);
  // New work is refused during a drain; observational requests keep working
  // (rotation scripts poll metrics/cache-stats while the drain converges).
  if (drain_.draining()) {
    return error_reply(ctx, "server draining: not accepting new runs, retry another replica",
                       kCodeDraining);
  }
  RunSpec run;
  if (std::string error =
          read_run_spec(request,
                        {"request", "experiment", "samples", "seed", "eval_path",
                         "timeout_ms", "trace", "trace_id", "origin"},
                        run);
      !error.empty()) {
    return error_reply(ctx, error);
  }
  ctx.experiment = run.experiment;
  if (ctx.origin == "sweep") metrics_.record_sweep_request(1);

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();

  RunOutcome outcome = run_one(run, run_stop(start, run.timeout_ms), ctx);
  if (!outcome.error.empty()) return error_reply(ctx, outcome.error, outcome.code);
  ctx.cache = outcome.coalesced ? "coalesced" : tier_name(outcome.tier);
  // A lone run's profile belongs to the request: finalize_request echoes it
  // and writes it to the trace log.
  ctx.profile_json = std::move(outcome.profile_json);

  const double wall = std::chrono::duration<double>(Clock::now() - start).count();
  const RequestTrace::Scope render_scope(ctx.trace, "render");
  JsonObject response;
  response.add("status", "ok");
  response.add("request", "run");
  response.add("experiment", run.experiment);
  response.add("cache", ctx.cache);
  response.add("wall_seconds", wall);
  response.add_json("record", std::move(outcome.record));
  return {response.render_line(), false};
}

ExperimentService::Reply ExperimentService::handle_run_batch(const JsonValue& request,
                                                             RequestContext& ctx) {
  const fleet::DrainState::RunScope drain_scope(drain_);  // see handle_run
  if (drain_.draining()) {
    return error_reply(ctx, "server draining: not accepting new runs, retry another replica",
                       kCodeDraining);
  }
  if (std::string error = check_fields(
          request, {"request", "runs", "timeout_ms", "trace", "trace_id", "origin"},
          "for this request");
      !error.empty()) {
    return error_reply(ctx, error);
  }
  const JsonValue* runs = request.find("runs");
  if (runs == nullptr || runs->kind() != JsonValue::Kind::kArray) {
    return error_reply(ctx, "run-batch requires array field 'runs'");
  }
  std::uint64_t timeout_ms = 0;
  if (std::string error = read_timeout_ms(request, timeout_ms); !error.empty()) {
    return error_reply(ctx, error);
  }
  if (ctx.origin == "sweep") {
    metrics_.record_sweep_request(static_cast<std::uint64_t>(runs->items().size()));
  }

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();

  // One deadline for the whole batch: the request either finishes inside it
  // or drains its remaining elements as per-element timeout errors.
  const harness::RunStop stop = run_stop(start, timeout_ms);

  std::vector<std::string> results;
  results.reserve(runs->items().size());
  std::uint64_t ok_count = 0;
  std::uint64_t error_count = 0;
  for (const JsonValue& element : runs->items()) {
    // One "element" span per batch element (all depth 1, sequential): the
    // trace shows where a slow batch spent its deadline element by element.
    const RequestTrace::Scope element_scope(ctx.trace, "element");
    metrics_.record_batch_element();
    JsonObject rendered;
    RunSpec spec;
    std::string error;
    if (element.kind() != JsonValue::Kind::kObject) {
      error = "batch element must be a JSON object (a run spec)";
    } else {
      error = read_run_spec(element, {"experiment", "samples", "seed", "eval_path"}, spec);
    }
    if (!error.empty()) {
      rendered.add("status", "error");
      rendered.add("code", kCodeBadRequest);
      rendered.add("error", error);
      ++error_count;
      results.push_back(rendered.render_line());
      continue;
    }
    RunOutcome outcome;
    try {
      outcome = run_one(spec, stop, ctx);
    } catch (const std::exception& failure) {
      outcome.error = std::string("internal error: ") + failure.what();
      outcome.code = kCodeInternal;
    }
    if (!outcome.error.empty()) {
      rendered.add("status", "error");
      rendered.add("code", outcome.code);
      rendered.add("error", outcome.error);
      rendered.add("experiment", spec.experiment);
      ++error_count;
    } else {
      rendered.add("status", "ok");
      rendered.add("experiment", spec.experiment);
      rendered.add("cache", outcome.coalesced ? "coalesced" : tier_name(outcome.tier));
      rendered.add_json("record", outcome.record);
      // A traced computed element carries its own RunProfile (cache hits
      // never ran the engine and have none) — the per-cell attribution
      // sweeps aggregate into their profile rollups.  It stays out of ctx,
      // so neither the batch envelope nor its trace-log line carries one.
      if (!outcome.profile_json.empty()) rendered.add_json("profile", outcome.profile_json);
      ++ok_count;
    }
    results.push_back(rendered.render_line());
  }

  const double wall = std::chrono::duration<double>(Clock::now() - start).count();
  const RequestTrace::Scope render_scope(ctx.trace, "render");
  JsonObject response;
  response.add("status", "ok");
  response.add("request", "run-batch");
  response.add("count", static_cast<std::uint64_t>(results.size()));
  response.add("ok", ok_count);
  response.add("errors", error_count);
  response.add("wall_seconds", wall);
  response.add_json("results", render_object_array(results));
  return {response.render_line(), false};
}

ExperimentService::Reply ExperimentService::handle_list(const JsonValue& request,
                                                        RequestContext& ctx) {
  if (std::string error = check_fields(
          request, {"request", "prefix", "trace", "trace_id", "origin"},
          "for this request");
      !error.empty()) {
    return error_reply(ctx, error);
  }
  std::string prefix;
  bool given = false;
  if (std::string error = read_string_field(request, "prefix", prefix, given);
      !error.empty()) {
    return error_reply(ctx, error);
  }

  std::vector<std::string> error_rate;
  for (const auto* experiment : harness::error_rate_experiments_with_prefix(prefix)) {
    error_rate.push_back(experiment->name);
  }
  std::vector<std::string> chain_profile;
  for (const auto* experiment : harness::chain_profile_experiments_with_prefix(prefix)) {
    chain_profile.push_back(experiment->name);
  }

  JsonObject response;
  response.add("status", "ok");
  response.add("request", "list");
  response.add_json("error_rate", render_string_array(error_rate));
  response.add_json("chain_profile", render_string_array(chain_profile));
  return {response.render_line(), false};
}

ExperimentService::Reply ExperimentService::handle_describe(const JsonValue& request,
                                                            RequestContext& ctx) {
  if (std::string error = check_fields(
          request, {"request", "experiment", "trace", "trace_id", "origin"},
          "for this request");
      !error.empty()) {
    return error_reply(ctx, error);
  }
  std::string name;
  bool given = false;
  if (std::string error = read_string_field(request, "experiment", name, given);
      !error.empty()) {
    return error_reply(ctx, error);
  }
  if (!given || name.empty()) return error_reply(ctx, "describe requires field 'experiment'");

  JsonObject response;
  response.add("status", "ok");
  response.add("request", "describe");
  if (harness::describe_experiment(name, response)) return {response.render_line(), false};
  return error_reply(ctx, "unknown experiment '" + name + "' (try \"list\")",
                     kCodeUnknownExperiment);
}

ExperimentService::Reply ExperimentService::handle_cache_stats(const JsonValue& request,
                                                               RequestContext& ctx) {
  if (std::string error = check_fields(
          request, {"request", "trace", "trace_id", "origin"},
          "for this request");
      !error.empty()) {
    return error_reply(ctx, error);
  }
  const CacheStats stats = cache_.stats();
  // Per-tier ratios over all lookups that answered a run: memory, disk,
  // coalesced (single-flight followers), and leader misses.
  const std::uint64_t hits = stats.memory_hits + stats.disk_hits + stats.coalesced_hits;
  const std::uint64_t lookups = hits + stats.misses;
  const auto ratio = [lookups](std::uint64_t count) {
    return lookups == 0 ? 0.0 : static_cast<double>(count) / static_cast<double>(lookups);
  };
  JsonObject response;
  response.add("status", "ok");
  response.add("request", "cache-stats");
  response.add("memory_hits", stats.memory_hits);
  response.add("disk_hits", stats.disk_hits);
  response.add("coalesced_hits", stats.coalesced_hits);
  response.add("misses", stats.misses);
  response.add("memory_hit_ratio", ratio(stats.memory_hits));
  response.add("disk_hit_ratio", ratio(stats.disk_hits));
  response.add("coalesced_hit_ratio", ratio(stats.coalesced_hits));
  response.add("hit_ratio", ratio(hits));
  response.add("stores", stats.stores);
  response.add("evictions", stats.evictions);
  response.add("disk_evictions", stats.disk_evictions);
  response.add("invalid_disk_records", stats.invalid_disk_records);
  response.add("lease_waits", stats.lease_waits);
  response.add("lease_takeovers", stats.lease_takeovers);
  response.add("memory_entries", stats.memory_entries);
  response.add("memory_capacity", static_cast<std::uint64_t>(cache_.memory_capacity()));
  response.add("disk_dir", cache_.disk_dir());
  response.add("disk_bytes", stats.disk_bytes);
  response.add("disk_max_bytes", cache_.max_disk_bytes());
  return {response.render_line(), false};
}

ExperimentService::Reply ExperimentService::handle_metrics(const JsonValue& request,
                                                           RequestContext& ctx) {
  if (std::string error = check_fields(
          request, {"request", "trace", "trace_id", "origin"},
          "for this request");
      !error.empty()) {
    return error_reply(ctx, error);
  }
  const MetricsSnapshot snapshot = metrics_.snapshot();
  const CacheStats cache_stats = cache_.stats();
  const std::uint64_t hits = cache_stats.memory_hits + cache_stats.disk_hits;
  const std::uint64_t lookups = hits + cache_stats.misses;

  JsonObject response;
  response.add("status", "ok");
  response.add("request", "metrics");
  // The snapshot taken before this request finished — "metrics" itself is
  // not yet in any counter (it records on return like every request).
  response.add("requests_total", snapshot.requests_total);
  response.add("ok_total", snapshot.ok_total);
  response.add("error_total", snapshot.error_total);
  response.add("timeouts", snapshot.timeouts);
  response.add("batch_elements", snapshot.batch_elements);
  response.add("sweep_requests", snapshot.sweep_requests);
  response.add("sweep_cells", snapshot.sweep_cells);
  response.add("rejected_connections", snapshot.rejected_connections);
  response.add("in_flight", snapshot.in_flight);
  response.add("draining", snapshot.draining != 0);
  response.add("uptime_seconds", snapshot.uptime_seconds);
  response.add("qps", snapshot.qps);
  response.add("qps_60s", snapshot.qps_60s);
  response.add("cache_hits", hits);
  response.add("cache_misses", cache_stats.misses);
  response.add("cache_hit_ratio",
               lookups == 0 ? 0.0
                            : static_cast<double>(hits) / static_cast<double>(lookups));
  response.add("latency_p50_seconds", snapshot.latency_p50_seconds);
  response.add("latency_p95_seconds", snapshot.latency_p95_seconds);
  response.add("latency_p99_seconds", snapshot.latency_p99_seconds);
  response.add("latency_max_seconds", snapshot.latency_max_seconds);
  JsonObject by_type;
  for (const RequestTypeCount& entry : snapshot.by_type) {
    by_type.add(entry.name, entry.count);
  }
  response.add_json("requests_by_type", by_type.render_line());
  return {response.render_line(), false};
}

ExperimentService::Reply ExperimentService::handle_metrics_prom(const JsonValue& request,
                                                                RequestContext& ctx) {
  if (std::string error = check_fields(
          request, {"request", "trace", "trace_id", "origin"},
          "for this request");
      !error.empty()) {
    return error_reply(ctx, error);
  }
  // The exposition text rides the line-framed protocol as a JSON envelope:
  // "body" is the complete text-format payload (newlines escaped by the
  // renderer), "content_type" what an HTTP scraper would have been served.
  // vlcsa_client --request=metrics-prom unwraps and prints the body raw.
  const std::string body = render_prometheus_text(metrics_.snapshot(), cache_.stats());
  JsonObject response;
  response.add("status", "ok");
  response.add("request", "metrics-prom");
  response.add("content_type", "text/plain; version=0.0.4");
  response.add("body", body);
  return {response.render_line(), false};
}

ExperimentService::Reply ExperimentService::handle_drain(const JsonValue& request,
                                                         RequestContext& ctx) {
  if (std::string error = check_fields(
          request, {"request", "trace", "trace_id", "origin"},
          "for this request");
      !error.empty()) {
    return error_reply(ctx, error);
  }
  // Flip the service-level flag immediately (so even a stdio conversation
  // rejects later runs); the socket server sees Reply::drain and drives the
  // connection side — stop accepting, drain deadline, exit 0.
  begin_drain();
  JsonObject response;
  response.add("status", "ok");
  response.add("request", "drain");
  response.add("draining", true);
  response.add("active_runs", static_cast<std::uint64_t>(drain_.active_runs()));
  Reply reply{response.render_line(), false};
  reply.drain = true;
  return reply;
}

ExperimentService::Reply ExperimentService::handle_shutdown(const JsonValue& request,
                                                            RequestContext& ctx) {
  if (std::string error = check_fields(
          request, {"request", "trace", "trace_id", "origin"},
          "for this request");
      !error.empty()) {
    return error_reply(ctx, error);
  }
  JsonObject response;
  response.add("status", "ok");
  response.add("request", "shutdown");
  return {response.render_line(), true};
}

std::uint64_t serve_stdio(std::istream& in, std::ostream& out, ExperimentService& service) {
  std::uint64_t handled = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;  // tolerate blank lines between requests
    const ExperimentService::Reply reply = service.handle_line(line);
    out << reply.line << '\n' << std::flush;
    ++handled;
    // A drain ends a stdio conversation the same way a shutdown does: the
    // one connection this transport has is done accepting work.
    if (reply.shutdown || reply.drain) break;
  }
  return handled;
}

}  // namespace vlcsa::service
