#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <initializer_list>
#include <istream>
#include <iterator>
#include <optional>
#include <ostream>
#include <span>
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

// The request table's field lists: each request's own fields.  Every
// top-level request also takes "request" and the observability envelope
// (read_trace_envelope), so those are implied rather than listed.
constexpr std::string_view kEnvelopeFields[] = {"request", "trace", "trace_id", "origin"};
constexpr std::string_view kRunFields[] = {"experiment", "samples", "seed", "eval_path",
                                           "timeout_ms"};
constexpr std::string_view kRunBatchFields[] = {"runs", "timeout_ms"};
constexpr std::string_view kListFields[] = {"prefix"};
constexpr std::string_view kDescribeFields[] = {"experiment"};

// A run-batch element is a run spec without the request-level deadline: the
// run row's fields minus the trailing "timeout_ms".
static_assert(kRunFields[std::size(kRunFields) - 1] == "timeout_ms");
constexpr std::span<const std::string_view> kRunSpecFields =
    std::span(kRunFields).first(std::size(kRunFields) - 1);

/// One reply field per counter row (a flag row as a bool).
template <class Stats>
void json_rows(JsonObject& out, const Stats& stats, CounterRows<Stats> rows) {
  for (const auto& row : rows) {
    if (row.type == CounterType::kFlag) {
      out.add(row.json, stats.*row.member != 0);
    } else {
      out.add(row.json, stats.*row.member);
    }
  }
}

/// Strict field check (the cli.hpp tradition: a typo'd field is an error,
/// never silently ignored): "" or "unknown field 'KEY' for this request"
/// for the first member of `object` that is not one of `fields` nor, for a
/// top-level request (`envelope`), one of kEnvelopeFields — the rule and
/// wording of harness::check_fields, over a request-table row's fields.
std::string check_fields(const JsonValue& object, std::span<const std::string_view> fields,
                         bool envelope) {
  const auto named = [](std::span<const std::string_view> names, const std::string& key) {
    return std::ranges::find(names, key) != names.end();
  };
  for (const auto& [key, value] : object.members()) {
    if (!named(fields, key) && !(envelope && named(kEnvelopeFields, key))) {
      return "unknown field '" + key + "' for this request";
    }
  }
  return {};
}

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
  for (const auto& [name, out] :
       {std::pair{"trace_id", &ctx.trace_id}, std::pair{"origin", &ctx.origin}}) {
    bool given = false;
    if (std::string error = read_string_field(request, name, *out, given); !error.empty()) {
      return error;
    }
    if (given && out->empty()) return std::string("field '") + name + "' must be non-empty";
  }
  return {};
}

/// [a, b, ...] — an array of pre-rendered JSON values (list names,
/// run-batch results).
std::string render_array(const std::vector<std::string>& rendered) {
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

/// A handler's verdict: an empty `error` means ok, and handle_line answers
/// the response the handler filled; otherwise handle_line answers `error`
/// with `code` through error_reply.
struct ExperimentService::Status {
  std::string error;
  const char* code = kCodeBadRequest;
};

/// What running one spec produced: either a Status error or a record.
struct ExperimentService::RunOutcome : Status {
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

/// Parses/validates one run spec whose field names were already checked (a
/// run request, or a run-batch element, which has no "timeout_ms"); "" or an
/// error message.
std::string read_run_spec(const JsonValue& request, ExperimentService::RunSpec& out) {
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

/// One run-batch result object: an ok element's record, or an error naming
/// its experiment when the element got as far as a valid spec.
std::string render_batch_result(ExperimentService::RunOutcome outcome,
                                const std::string& experiment) {
  JsonObject result;
  if (!outcome.error.empty()) {
    result.add("status", "error");
    result.add("code", outcome.code);
    result.add("error", outcome.error);
    if (!experiment.empty()) result.add("experiment", experiment);
    return result.render_line();
  }
  result.add("status", "ok");
  result.add("experiment", experiment);
  result.add("cache", outcome.coalesced ? "coalesced" : tier_name(outcome.tier));
  result.add_json("record", std::move(outcome.record));
  // A traced computed element carries its own RunProfile (cache hits never
  // ran the engine and have none) — the per-cell attribution sweeps
  // aggregate into their profile rollups.  It stays out of the request
  // context, so neither the batch envelope nor its trace-log line carries one.
  if (!outcome.profile_json.empty()) result.add_json("profile", std::move(outcome.profile_json));
  return result.render_line();
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

// The request table, in documentation order: the protocol's schema.  DESIGN.md's
// protocol reference must list exactly these names, each with a field table
// of exactly its fields (the protocol-doc test diffs both).
const ExperimentService::RequestRow ExperimentService::kRequests[] = {
    {"run", &ExperimentService::handle_run, kRunFields, true},
    {"run-batch", &ExperimentService::handle_run_batch, kRunBatchFields, true},
    {"list", &ExperimentService::handle_list, kListFields},
    {"describe", &ExperimentService::handle_describe, kDescribeFields},
    {"cache-stats", &ExperimentService::handle_cache_stats, {}},
    {"metrics", &ExperimentService::handle_metrics, {}},
    {"metrics-prom", &ExperimentService::handle_metrics_prom, {}},
    {"drain", &ExperimentService::handle_drain, {}},
    {"shutdown", &ExperimentService::handle_shutdown, {}},
};

std::vector<std::string> ExperimentService::request_names() {
  std::vector<std::string> names;
  for (const RequestRow& row : kRequests) names.emplace_back(row.name);
  return names;
}

std::span<const std::string_view> ExperimentService::request_fields(std::string_view name) {
  for (const RequestRow& row : kRequests) {
    if (row.name == name) return row.fields;
  }
  return {};
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

  // The shared work of every request, in order: parse, read the envelope,
  // look up the row, gate run rows on the drain, check the row's fields,
  // open the ok reply, call the handler.  Each step answers the request's
  // error itself, so the first failing check wins.
  const RequestRow* row = nullptr;
  Reply reply = [&]() -> Reply {
    harness::JsonParse parse;
    {
      const RequestTrace::Scope parse_scope(ctx.trace, "parse");
      parse = harness::parse_json(line);
    }
    if (!parse.ok()) return error_reply(ctx, "malformed request: " + parse.error);
    const JsonValue& request = parse.value;
    if (request.kind() != JsonValue::Kind::kObject) {
      return error_reply(ctx, "request must be a JSON object");
    }
    if (std::string error = read_trace_envelope(request, ctx); !error.empty()) {
      return error_reply(ctx, error);
    }
    const JsonValue* name = request.find("request");
    if (name == nullptr || name->kind() != JsonValue::Kind::kString) {
      return error_reply(ctx, "missing string field 'request'");
    }
    const auto found = std::find_if(std::begin(kRequests), std::end(kRequests),
                                    [&](const RequestRow& candidate) {
                                      return candidate.name == name->as_string();
                                    });
    if (found == std::end(kRequests)) {
      // "run, run-batch, ..., drain or shutdown"
      static const std::string kExpected = [] {
        std::string names;
        for (std::size_t i = 0; i < std::size(kRequests); ++i) {
          if (i > 0) names += i + 1 == std::size(kRequests) ? " or " : ", ";
          names += kRequests[i].name;
        }
        return names;
      }();
      return error_reply(ctx,
                         "unknown request '" + name->as_string() + "' (expected " + kExpected +
                             ")",
                         kCodeUnknownRequest);
    }
    row = found;

    // A run is counted before the draining check, so a server that reads
    // active_runs() == 0 after begin_drain() knows every later run request
    // refuses (fleet.hpp).  New work is refused during a drain, before its
    // fields are checked; observational requests keep working (rotation
    // scripts poll metrics/cache-stats while the drain converges).
    std::optional<fleet::DrainState::RunScope> run_scope;
    if (row->run) {
      run_scope.emplace(drain_);
      if (drain_.draining()) {
        return error_reply(ctx, "server draining: not accepting new runs, retry another replica",
                           kCodeDraining);
      }
    }
    if (std::string error = check_fields(request, row->fields, true); !error.empty()) {
      return error_reply(ctx, error);
    }

    JsonObject response;
    response.add("status", "ok");
    response.add("request", row->name);
    Reply result;
    Status status;
    // A daemon must outlive any single request: anything a handler throws
    // (engine failures, rethrown leader exceptions from the single-flight
    // latch) becomes an error reply, never a dead server.
    try {
      status = (this->*row->handler)(request, ctx, response, result);
    } catch (const std::exception& error) {
      return error_reply(ctx, std::string("internal error: ") + error.what(), kCodeInternal);
    }
    if (!status.error.empty()) return error_reply(ctx, status.error, status.code);
    result.line = response.render_line();
    return result;
  }();

  ctx.trace.close(root);
  const double wall = std::chrono::duration<double>(Clock::now() - start).count();
  const std::string_view type = row != nullptr ? row->name : "invalid";
  finalize_request(ctx, type, reply, wall);
  // One metrics update per request: the counters, the latency histogram and
  // the per-stage histograms fed from the span durations.  The row's index
  // is its request-type slot; std::size(kRequests) is "invalid".
  const std::size_t type_index =
      row != nullptr ? static_cast<std::size_t>(row - kRequests) : std::size(kRequests);
  metrics_.record_request(type_index, reply.ok, wall, ctx.trace.spans());
  return reply;
}

void ExperimentService::finalize_request(RequestContext& ctx, std::string_view type,
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
      metrics_.add({.timeouts = 1});
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
              cache_.add({.lease_waits = 1});
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
      cache_.add({.coalesced_hits = 1});
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

ExperimentService::Status ExperimentService::handle_run(const JsonValue& request,
                                                        RequestContext& ctx,
                                                        JsonObject& response, Reply&) {
  RunSpec run;
  if (std::string error = read_run_spec(request, run); !error.empty()) return {error};
  ctx.experiment = run.experiment;
  if (ctx.origin == "sweep") metrics_.add({.sweep_requests = 1, .sweep_cells = 1});

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();

  RunOutcome outcome = run_one(run, run_stop(start, run.timeout_ms), ctx);
  if (!outcome.error.empty()) return {outcome.error, outcome.code};
  ctx.cache = outcome.coalesced ? "coalesced" : tier_name(outcome.tier);
  // A lone run's profile belongs to the request: finalize_request echoes it
  // and writes it to the trace log.
  ctx.profile_json = std::move(outcome.profile_json);

  const double wall = std::chrono::duration<double>(Clock::now() - start).count();
  const RequestTrace::Scope render_scope(ctx.trace, "render");
  response.add("experiment", run.experiment);
  response.add("cache", ctx.cache);
  response.add("wall_seconds", wall);
  response.add_json("record", std::move(outcome.record));
  return {};
}

ExperimentService::Status ExperimentService::handle_run_batch(const JsonValue& request,
                                                              RequestContext& ctx,
                                                              JsonObject& response, Reply&) {
  const JsonValue* runs = request.find("runs");
  if (runs == nullptr || runs->kind() != JsonValue::Kind::kArray) {
    return {"run-batch requires array field 'runs'"};
  }
  std::uint64_t timeout_ms = 0;
  if (std::string error = read_timeout_ms(request, timeout_ms); !error.empty()) return {error};
  if (ctx.origin == "sweep") {
    metrics_.add({.sweep_requests = 1, .sweep_cells = runs->items().size()});
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
    metrics_.add({.batch_elements = 1});
    RunSpec spec;
    RunOutcome outcome;
    if (element.kind() != JsonValue::Kind::kObject) {
      outcome.error = "batch element must be a JSON object (a run spec)";
    } else if (outcome.error = check_fields(element, kRunSpecFields, false);
               outcome.error.empty()) {
      outcome.error = read_run_spec(element, spec);
    }
    const bool valid = outcome.error.empty();
    if (valid) {
      try {
        outcome = run_one(spec, stop, ctx);
      } catch (const std::exception& failure) {
        outcome.error = std::string("internal error: ") + failure.what();
        outcome.code = kCodeInternal;
      }
    }
    ++(outcome.error.empty() ? ok_count : error_count);
    // An element that failed validation names no experiment.
    results.push_back(render_batch_result(std::move(outcome), valid ? spec.experiment : ""));
  }

  const double wall = std::chrono::duration<double>(Clock::now() - start).count();
  const RequestTrace::Scope render_scope(ctx.trace, "render");
  response.add("count", static_cast<std::uint64_t>(results.size()));
  response.add("ok", ok_count);
  response.add("errors", error_count);
  response.add("wall_seconds", wall);
  response.add_json("results", render_array(results));
  return {};
}

ExperimentService::Status ExperimentService::handle_list(const JsonValue& request,
                                                         RequestContext&, JsonObject& response,
                                                         Reply&) {
  std::string prefix;
  bool given = false;
  if (std::string error = read_string_field(request, "prefix", prefix, given);
      !error.empty()) {
    return {error};
  }

  const auto quoted = [](const auto& experiment) {
    return "\"" + harness::json_escape(experiment->name) + "\"";
  };
  std::vector<std::string> error_rate;
  for (const auto* experiment : harness::error_rate_experiments_with_prefix(prefix)) {
    error_rate.push_back(quoted(experiment));
  }
  std::vector<std::string> chain_profile;
  for (const auto* experiment : harness::chain_profile_experiments_with_prefix(prefix)) {
    chain_profile.push_back(quoted(experiment));
  }
  response.add_json("error_rate", render_array(error_rate));
  response.add_json("chain_profile", render_array(chain_profile));
  return {};
}

ExperimentService::Status ExperimentService::handle_describe(const JsonValue& request,
                                                             RequestContext&,
                                                             JsonObject& response, Reply&) {
  std::string name;
  bool given = false;
  if (std::string error = read_string_field(request, "experiment", name, given);
      !error.empty()) {
    return {error};
  }
  if (!given || name.empty()) return {"describe requires field 'experiment'"};
  if (harness::describe_experiment(name, response)) return {};
  return {"unknown experiment '" + name + "' (try \"list\")", kCodeUnknownExperiment};
}

ExperimentService::Status ExperimentService::handle_cache_stats(const JsonValue&,
                                                                RequestContext&,
                                                                JsonObject& response, Reply&) {
  const CacheStats stats = cache_.stats();
  const auto [lookups, rest] = split_after(std::span(kCacheStatsRows), "misses");
  const auto [bookkeeping, disk] = split_after(rest, "memory_entries");
  json_rows(response, stats, lookups);
  response.add("memory_hit_ratio", stats.ratio(stats.memory_hits));
  response.add("disk_hit_ratio", stats.ratio(stats.disk_hits));
  response.add("coalesced_hit_ratio", stats.ratio(stats.coalesced_hits));
  response.add("hit_ratio", stats.ratio(stats.hits()));
  json_rows(response, stats, bookkeeping);
  response.add("memory_capacity", static_cast<std::uint64_t>(cache_.memory_capacity()));
  response.add("disk_dir", cache_.disk_dir());
  json_rows(response, stats, disk);
  response.add("disk_max_bytes", cache_.max_disk_bytes());
  return {};
}

ExperimentService::Status ExperimentService::handle_metrics(const JsonValue&, RequestContext&,
                                                            JsonObject& response, Reply&) {
  const MetricsSnapshot snapshot = metrics_.snapshot();
  const CacheStats cache_stats = cache_.counters();

  // The snapshot taken before this request finished — "metrics" itself is
  // not yet in any counter (it records on return like every request).
  json_rows<MetricsCounters>(response, snapshot, kMetricsCounterRows);
  response.add("uptime_seconds", snapshot.uptime_seconds);
  response.add("qps", snapshot.qps);
  response.add("qps_60s", snapshot.qps_60s);
  response.add("cache_hits", cache_stats.hits());
  response.add("cache_misses", cache_stats.misses);
  response.add("cache_hit_ratio", cache_stats.ratio(cache_stats.hits()));
  response.add("latency_p50_seconds", snapshot.latency_p50_seconds);
  response.add("latency_p95_seconds", snapshot.latency_p95_seconds);
  response.add("latency_p99_seconds", snapshot.latency_p99_seconds);
  response.add("latency_max_seconds", snapshot.latency_max_seconds);
  JsonObject by_type;
  for (const RequestTypeCount& entry : snapshot.by_type) {
    by_type.add(entry.name, entry.count);
  }
  response.add_json("requests_by_type", by_type.render_line());
  return {};
}

ExperimentService::Status ExperimentService::handle_metrics_prom(const JsonValue&,
                                                                 RequestContext&,
                                                                 JsonObject& response, Reply&) {
  // The exposition text rides the line-framed protocol as a JSON envelope:
  // "body" is the complete text-format payload (newlines escaped by the
  // renderer), "content_type" what an HTTP scraper would have been served.
  // vlcsa_client --request=metrics-prom unwraps and prints the body raw.
  response.add("content_type", "text/plain; version=0.0.4");
  response.add("body", render_prometheus_text(metrics_.snapshot(), cache_.stats()));
  return {};
}

ExperimentService::Status ExperimentService::handle_drain(const JsonValue&, RequestContext&,
                                                          JsonObject& response, Reply& reply) {
  // Flip the service-level flag immediately (so even a stdio conversation
  // rejects later runs); the socket server sees Reply::drain and drives the
  // connection side — stop accepting, drain deadline, exit 0.
  begin_drain();
  response.add("draining", true);
  response.add("active_runs", static_cast<std::uint64_t>(drain_.active_runs()));
  reply.drain = true;
  return {};
}

ExperimentService::Status ExperimentService::handle_shutdown(const JsonValue&, RequestContext&,
                                                             JsonObject&, Reply& reply) {
  reply.shutdown = true;
  return {};
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
