#include "service/metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace vlcsa::service {

namespace {

/// The quantile value: the upper bound (seconds) of the first bucket whose
/// cumulative count reaches fraction `q` of `total`.  The overflow bucket
/// reports the largest finite bound (latency_max_seconds is the exact tail).
template <std::size_t N>
double bucket_quantile(const std::array<std::uint64_t, N>& buckets,
                       const std::array<std::uint64_t, N - 1>& bounds_us, std::uint64_t total,
                       double q) {
  if (total == 0) return 0.0;
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(q * static_cast<double>(total)));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) {
      const std::size_t bound = std::min(i, bounds_us.size() - 1);
      return static_cast<double>(bounds_us[bound]) * 1e-6;
    }
  }
  return static_cast<double>(bounds_us.back()) * 1e-6;
}

}  // namespace

ServiceMetrics::ServiceMetrics()
    : start_(std::chrono::steady_clock::now()),
      by_type_(request_types().size(), 0),
      stages_(stage_names().size()) {}

const std::vector<std::string>& ServiceMetrics::request_types() {
  // Keep in sync with ExperimentService's request table (service.cpp); the
  // protocol-doc test pins the request table against DESIGN.md and the
  // metrics test pins this list against the request table.
  static const std::vector<std::string> kTypes = {
      "run",     "run-batch",    "list",     "describe",  "cache-stats",
      "metrics", "metrics-prom", "drain",    "shutdown",  "invalid"};
  return kTypes;
}

const std::vector<std::string>& ServiceMetrics::stage_names() {
  // The trace span names the service emits (service.cpp request handling) —
  // these become the fixed `stage` label set of the exposition, so scrapers
  // never see a label churn.  "request" (the root span) is excluded: its
  // distribution is the request latency histogram itself.
  static const std::vector<std::string> kStages = {
      "parse", "cache-lookup", "coalesced-wait", "lease-wait", "engine-run",
      "record-write", "render", "element"};
  return kStages;
}

std::vector<double> ServiceMetrics::latency_bucket_bounds_seconds() {
  std::vector<double> bounds;
  bounds.reserve(kBucketBoundsUs.size());
  for (const std::uint64_t us : kBucketBoundsUs) {
    bounds.push_back(static_cast<double>(us) * 1e-6);
  }
  return bounds;
}

std::size_t ServiceMetrics::bucket_index(double seconds) {
  const double us = seconds * 1e6;
  for (std::size_t i = 0; i < kBucketBoundsUs.size(); ++i) {
    if (us <= static_cast<double>(kBucketBoundsUs[i])) return i;
  }
  return kBucketBoundsUs.size();  // overflow
}

ServiceMetrics::InFlight::InFlight(ServiceMetrics& metrics) : metrics_(metrics) {
  const std::lock_guard<std::mutex> lock(metrics_.mutex_);
  ++metrics_.in_flight_;
}

ServiceMetrics::InFlight::~InFlight() {
  const std::lock_guard<std::mutex> lock(metrics_.mutex_);
  --metrics_.in_flight_;
}

void ServiceMetrics::record_request(const std::string& type, bool ok, double seconds,
                                    std::span<const TraceSpan> spans) {
  const auto now = std::chrono::steady_clock::now();
  const auto& stages = stage_names();
  const std::lock_guard<std::mutex> lock(mutex_);
  ++requests_total_;
  ++(ok ? ok_total_ : error_total_);
  const auto& types = request_types();
  std::size_t index = types.size() - 1;  // "invalid" is the fallback slot
  for (std::size_t i = 0; i < types.size(); ++i) {
    if (types[i] == type) {
      index = i;
      break;
    }
  }
  ++by_type_[index];

  latency_max_seconds_ = std::max(latency_max_seconds_, seconds);
  latency_sum_seconds_ += seconds;
  ++buckets_[bucket_index(seconds)];

  // qps_60s ring: tag the slot with its absolute second so a slot left over
  // from >60 s ago is reset here (and ignored by snapshot) instead of
  // inflating the window after an idle gap.
  const std::uint64_t second = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(now - start_).count());
  const std::size_t slot = static_cast<std::size_t>(second % 60);
  if (second_stamps_[slot] != second + 1) {
    second_stamps_[slot] = second + 1;
    second_counts_[slot] = 0;
  }
  ++second_counts_[slot];

  for (const TraceSpan& span : spans) {
    if (span.depth == 0) continue;
    const auto stage = std::find(stages.begin(), stages.end(), span.name);
    if (stage == stages.end()) continue;
    const double span_seconds = static_cast<double>(span.dur_us) * 1e-6;
    StageState& state = stages_[static_cast<std::size_t>(stage - stages.begin())];
    ++state.buckets[bucket_index(span_seconds)];
    state.sum_seconds += span_seconds;
    ++state.count;
  }
}

void ServiceMetrics::record_timeout() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++timeouts_;
}

void ServiceMetrics::record_batch_element() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++batch_elements_;
}

void ServiceMetrics::record_sweep_request(std::uint64_t cells) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++sweep_requests_;
  sweep_cells_ += cells;
}

void ServiceMetrics::record_rejected_connection() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++rejected_connections_;
}

void ServiceMetrics::set_draining(bool draining) {
  const std::lock_guard<std::mutex> lock(mutex_);
  draining_ = draining;
}

MetricsSnapshot ServiceMetrics::snapshot() const {
  const auto now = std::chrono::steady_clock::now();
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot out;
  out.requests_total = requests_total_;
  out.ok_total = ok_total_;
  out.error_total = error_total_;
  out.timeouts = timeouts_;
  out.batch_elements = batch_elements_;
  out.sweep_requests = sweep_requests_;
  out.sweep_cells = sweep_cells_;
  out.rejected_connections = rejected_connections_;
  out.in_flight = in_flight_;
  out.draining = draining_ ? 1 : 0;
  out.uptime_seconds = std::chrono::duration<double>(now - start_).count();
  out.qps = out.uptime_seconds > 0.0
                ? static_cast<double>(requests_total_) / out.uptime_seconds
                : 0.0;
  // Recent-window rate: count the ring slots belonging to the last 60
  // seconds (stale slots keep their old stamp and are skipped), over a
  // window no longer than the uptime — so early in a run qps_60s equals the
  // lifetime average instead of under-reporting.
  const std::uint64_t second_now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(now - start_).count());
  std::uint64_t recent = 0;
  for (std::size_t slot = 0; slot < second_stamps_.size(); ++slot) {
    if (second_stamps_[slot] == 0) continue;
    const std::uint64_t second = second_stamps_[slot] - 1;
    if (second + 60 > second_now) recent += second_counts_[slot];
  }
  const double window_seconds = std::min(out.uptime_seconds, 60.0);
  out.qps_60s =
      window_seconds > 0.0 ? static_cast<double>(recent) / window_seconds : 0.0;
  out.latency_p50_seconds = bucket_quantile(buckets_, kBucketBoundsUs, requests_total_, 0.50);
  out.latency_p95_seconds = bucket_quantile(buckets_, kBucketBoundsUs, requests_total_, 0.95);
  out.latency_p99_seconds = bucket_quantile(buckets_, kBucketBoundsUs, requests_total_, 0.99);
  out.latency_max_seconds = latency_max_seconds_;
  out.latency_sum_seconds = latency_sum_seconds_;
  out.latency_buckets.assign(buckets_.begin(), buckets_.end());
  const auto& types = request_types();
  out.by_type.reserve(types.size());
  for (std::size_t i = 0; i < types.size(); ++i) {
    out.by_type.push_back({types[i], by_type_[i]});
  }
  const auto& stages = stage_names();
  out.stages.reserve(stages.size());
  for (std::size_t i = 0; i < stages.size(); ++i) {
    StageLatency stage;
    stage.name = stages[i];
    stage.buckets.assign(stages_[i].buckets.begin(), stages_[i].buckets.end());
    stage.sum_seconds = stages_[i].sum_seconds;
    stage.count = stages_[i].count;
    out.stages.push_back(std::move(stage));
  }
  return out;
}

namespace {

/// Prometheus float formatting: %g keeps le labels readable ("0.001",
/// "1e-06") and the text format accepts any C float literal.
std::string prom_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

std::string prom_u64(std::uint64_t value) { return std::to_string(value); }

void prom_header(std::string& out, const char* name, const char* type, const char* help) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

/// One histogram: cumulative le-labeled buckets, then _sum and _count.
/// `labels` is either empty or a pre-rendered `name="value",` list
/// (trailing comma) the le label is appended to.
void prom_histogram(std::string& out, const char* name, const std::string& labels,
                    const std::vector<double>& bounds,
                    const std::vector<std::uint64_t>& buckets, double sum_seconds,
                    std::uint64_t count) {
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < bounds.size() && i < buckets.size(); ++i) {
    cumulative += buckets[i];
    out += name;
    out += "_bucket{";
    out += labels;
    out += "le=\"";
    out += prom_double(bounds[i]);
    out += "\"} ";
    out += prom_u64(cumulative);
    out += '\n';
  }
  out += name;
  out += "_bucket{";
  out += labels;
  out += "le=\"+Inf\"} ";
  out += prom_u64(count);
  out += '\n';
  // _sum/_count carry the labels without le (and no "{}" when unlabeled).
  const std::string bare =
      labels.empty() ? "" : "{" + labels.substr(0, labels.size() - 1) + "}";
  out += name;
  out += "_sum";
  out += bare;
  out += ' ';
  out += prom_double(sum_seconds);
  out += '\n';
  out += name;
  out += "_count";
  out += bare;
  out += ' ';
  out += prom_u64(count);
  out += '\n';
}

void prom_line(std::string& out, const char* name, const std::string& labels,
               const std::string& value) {
  out += name;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  out += value;
  out += '\n';
}

}  // namespace

std::string render_prometheus_text(const MetricsSnapshot& metrics, const CacheStats& cache) {
  const std::vector<double> bounds = ServiceMetrics::latency_bucket_bounds_seconds();
  std::string out;
  out.reserve(8192);

  prom_header(out, "vlcsa_uptime_seconds", "gauge", "Daemon uptime in seconds.");
  prom_line(out, "vlcsa_uptime_seconds", "", prom_double(metrics.uptime_seconds));
  prom_header(out, "vlcsa_requests_total", "counter", "Requests handled (all types).");
  prom_line(out, "vlcsa_requests_total", "", prom_u64(metrics.requests_total));
  prom_header(out, "vlcsa_requests_ok_total", "counter", "Requests answered status ok.");
  prom_line(out, "vlcsa_requests_ok_total", "", prom_u64(metrics.ok_total));
  prom_header(out, "vlcsa_requests_error_total", "counter",
              "Requests answered status error.");
  prom_line(out, "vlcsa_requests_error_total", "", prom_u64(metrics.error_total));
  prom_header(out, "vlcsa_requests_by_type_total", "counter",
              "Requests handled, by protocol request type.");
  for (const RequestTypeCount& entry : metrics.by_type) {
    prom_line(out, "vlcsa_requests_by_type_total", "type=\"" + entry.name + "\"",
              prom_u64(entry.count));
  }
  prom_header(out, "vlcsa_timeouts_total", "counter",
              "Run or run-batch elements cancelled by their deadline.");
  prom_line(out, "vlcsa_timeouts_total", "", prom_u64(metrics.timeouts));
  prom_header(out, "vlcsa_batch_elements_total", "counter",
              "run-batch elements processed.");
  prom_line(out, "vlcsa_batch_elements_total", "", prom_u64(metrics.batch_elements));
  prom_header(out, "vlcsa_sweep_requests_total", "counter",
              "run/run-batch requests declaring origin \"sweep\".");
  prom_line(out, "vlcsa_sweep_requests_total", "", prom_u64(metrics.sweep_requests));
  prom_header(out, "vlcsa_sweep_cells_total", "counter",
              "Sweep grid cells carried by origin-\"sweep\" run traffic.");
  prom_line(out, "vlcsa_sweep_cells_total", "", prom_u64(metrics.sweep_cells));
  prom_header(out, "vlcsa_rejected_connections_total", "counter",
              "Connections rejected at the backlog cap.");
  prom_line(out, "vlcsa_rejected_connections_total", "",
            prom_u64(metrics.rejected_connections));
  prom_header(out, "vlcsa_in_flight", "gauge", "Requests currently inside handlers.");
  prom_line(out, "vlcsa_in_flight", "", prom_u64(metrics.in_flight));
  prom_header(out, "vlcsa_draining", "gauge",
              "1 while the daemon is draining (rejecting new runs).");
  prom_line(out, "vlcsa_draining", "", prom_u64(metrics.draining));
  prom_header(out, "vlcsa_qps_60s", "gauge",
              "Request rate over the last 60 seconds.");
  prom_line(out, "vlcsa_qps_60s", "", prom_double(metrics.qps_60s));

  prom_header(out, "vlcsa_request_latency_seconds", "histogram",
              "Request handler wall time.");
  prom_histogram(out, "vlcsa_request_latency_seconds", "", bounds, metrics.latency_buckets,
                 metrics.latency_sum_seconds, metrics.requests_total);
  prom_header(out, "vlcsa_stage_latency_seconds", "histogram",
              "Per-stage request time, from trace spans (populated while "
              "tracing is active).");
  for (const StageLatency& stage : metrics.stages) {
    prom_histogram(out, "vlcsa_stage_latency_seconds", "stage=\"" + stage.name + "\",",
                   bounds, stage.buckets, stage.sum_seconds, stage.count);
  }

  prom_header(out, "vlcsa_cache_hits_total", "counter", "Cache hits, by tier.");
  prom_line(out, "vlcsa_cache_hits_total", "tier=\"memory\"", prom_u64(cache.memory_hits));
  prom_line(out, "vlcsa_cache_hits_total", "tier=\"disk\"", prom_u64(cache.disk_hits));
  prom_line(out, "vlcsa_cache_hits_total", "tier=\"coalesced\"",
            prom_u64(cache.coalesced_hits));
  prom_header(out, "vlcsa_cache_misses_total", "counter", "Cache misses (leader lookups).");
  prom_line(out, "vlcsa_cache_misses_total", "", prom_u64(cache.misses));
  prom_header(out, "vlcsa_cache_stores_total", "counter", "Records stored.");
  prom_line(out, "vlcsa_cache_stores_total", "", prom_u64(cache.stores));
  prom_header(out, "vlcsa_cache_evictions_total", "counter", "Evictions, by tier.");
  prom_line(out, "vlcsa_cache_evictions_total", "tier=\"memory\"",
            prom_u64(cache.evictions));
  prom_line(out, "vlcsa_cache_evictions_total", "tier=\"disk\"",
            prom_u64(cache.disk_evictions));
  prom_header(out, "vlcsa_cache_invalid_disk_records_total", "counter",
              "Corrupt or mismatched disk records seen.");
  prom_line(out, "vlcsa_cache_invalid_disk_records_total", "",
            prom_u64(cache.invalid_disk_records));
  prom_header(out, "vlcsa_cache_lease_waits_total", "counter",
              "Misses that waited on another replica's compute lease.");
  prom_line(out, "vlcsa_cache_lease_waits_total", "", prom_u64(cache.lease_waits));
  prom_header(out, "vlcsa_cache_lease_takeovers_total", "counter",
              "Stale (crashed-holder) compute leases reaped.");
  prom_line(out, "vlcsa_cache_lease_takeovers_total", "", prom_u64(cache.lease_takeovers));
  prom_header(out, "vlcsa_cache_memory_entries", "gauge", "Memory-tier entries.");
  prom_line(out, "vlcsa_cache_memory_entries", "", prom_u64(cache.memory_entries));
  prom_header(out, "vlcsa_cache_disk_bytes", "gauge", "Disk-tier record bytes.");
  prom_line(out, "vlcsa_cache_disk_bytes", "", prom_u64(cache.disk_bytes));
  return out;
}

}  // namespace vlcsa::service
