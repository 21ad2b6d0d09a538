#include "service/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>

#include "service/service.hpp"

namespace vlcsa::service {

namespace {

/// The quantile value: the upper bound (seconds) of the bucket holding the
/// nearest-rank sample, rank ceil(q * total) (vlcsa_loadgen's rule), i.e.
/// the first bucket whose cumulative count reaches that rank.  The overflow
/// bucket reports the largest finite bound (latency_max_seconds is the
/// exact tail).
template <std::size_t N>
double bucket_quantile(const std::array<std::uint64_t, N>& buckets,
                       const std::array<std::uint64_t, N - 1>& bounds_us, std::uint64_t total,
                       double q) {
  if (total == 0) return 0.0;
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
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
  static const std::vector<std::string> kTypes = [] {
    std::vector<std::string> types = ExperimentService::request_names();
    types.emplace_back("invalid");
    return types;
  }();
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
  ++metrics_.counters_.in_flight;
}

ServiceMetrics::InFlight::~InFlight() {
  const std::lock_guard<std::mutex> lock(metrics_.mutex_);
  --metrics_.counters_.in_flight;
}

void ServiceMetrics::record_request(std::size_t type, bool ok, double seconds,
                                    std::span<const TraceSpan> spans) {
  const auto now = std::chrono::steady_clock::now();
  const auto& stages = stage_names();
  const std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.requests_total;
  ++(ok ? counters_.ok_total : counters_.error_total);
  ++by_type_[std::min(type, by_type_.size() - 1)];  // the last slot is "invalid"

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

void ServiceMetrics::add(const MetricsCounters& delta) {
  const std::lock_guard<std::mutex> lock(mutex_);
  counters_ += delta;
}

void ServiceMetrics::set_draining(bool draining) {
  const std::lock_guard<std::mutex> lock(mutex_);
  counters_.draining = draining ? 1 : 0;
}

MetricsSnapshot ServiceMetrics::snapshot() const {
  const auto now = std::chrono::steady_clock::now();
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot out;
  static_cast<MetricsCounters&>(out) = counters_;
  out.uptime_seconds = std::chrono::duration<double>(now - start_).count();
  out.qps = out.uptime_seconds > 0.0
                ? static_cast<double>(out.requests_total) / out.uptime_seconds
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
  out.latency_p50_seconds = bucket_quantile(buckets_, kBucketBoundsUs, out.requests_total, 0.50);
  out.latency_p95_seconds = bucket_quantile(buckets_, kBucketBoundsUs, out.requests_total, 0.95);
  out.latency_p99_seconds = bucket_quantile(buckets_, kBucketBoundsUs, out.requests_total, 0.99);
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
    const StageState& state = stages_[i];
    out.stages.push_back({stages[i], {state.buckets.begin(), state.buckets.end()},
                          state.sum_seconds, state.count});
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
  out.append("# HELP ").append(name).append(" ").append(help);
  out.append("\n# TYPE ").append(name).append(" ").append(type).append("\n");
}

/// `name{labels} value`, without the braces when there are no labels.
void prom_line(std::string& out, std::string_view name, std::string_view labels,
               std::string_view value) {
  out.append(name);
  if (!labels.empty()) out.append("{").append(labels).append("}");
  out.append(" ").append(value).append("\n");
}

/// One histogram: cumulative le-labeled buckets, then _sum and _count.
/// `labels` is either empty or a pre-rendered `name="value",` list
/// (trailing comma) the le label is appended to.
void prom_histogram(std::string& out, const std::string& name, const std::string& labels,
                    const std::vector<double>& bounds,
                    const std::vector<std::uint64_t>& buckets, double sum_seconds,
                    std::uint64_t count) {
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < bounds.size() && i < buckets.size(); ++i) {
    cumulative += buckets[i];
    prom_line(out, name + "_bucket", labels + "le=\"" + prom_double(bounds[i]) + "\"",
              prom_u64(cumulative));
  }
  prom_line(out, name + "_bucket", labels + "le=\"+Inf\"", prom_u64(count));
  // _sum/_count carry the labels without le (and no "{}" when unlabeled).
  const std::string bare = labels.empty() ? "" : labels.substr(0, labels.size() - 1);
  prom_line(out, name + "_sum", bare, prom_double(sum_seconds));
  prom_line(out, name + "_count", bare, prom_u64(count));
}

/// One sample per row; a family's # HELP/# TYPE lines head its first row.
template <class Stats>
void prom_rows(std::string& out, const Stats& stats, CounterRows<Stats> rows) {
  std::string_view family;
  for (const auto& row : rows) {
    if (family != row.family) {
      family = row.family;
      prom_header(out, row.family, row.type == CounterType::kCounter ? "counter" : "gauge",
                  row.help);
    }
    prom_line(out, row.family, row.label, prom_u64(stats.*row.member));
  }
}

}  // namespace

std::string render_prometheus_text(const MetricsSnapshot& metrics, const CacheStats& cache) {
  const std::vector<double> bounds = ServiceMetrics::latency_bucket_bounds_seconds();
  const auto [traffic, rest] = split_after(std::span(kMetricsCounterRows), "error_total");
  std::string out;
  out.reserve(8192);

  prom_header(out, "vlcsa_uptime_seconds", "gauge", "Daemon uptime in seconds.");
  prom_line(out, "vlcsa_uptime_seconds", "", prom_double(metrics.uptime_seconds));
  prom_rows<MetricsCounters>(out, metrics, traffic);
  prom_header(out, "vlcsa_requests_by_type_total", "counter",
              "Requests handled, by protocol request type.");
  for (const RequestTypeCount& entry : metrics.by_type) {
    prom_line(out, "vlcsa_requests_by_type_total", "type=\"" + entry.name + "\"",
              prom_u64(entry.count));
  }
  prom_rows<MetricsCounters>(out, metrics, rest);
  prom_header(out, "vlcsa_qps_60s", "gauge", "Request rate over the last 60 seconds.");
  prom_line(out, "vlcsa_qps_60s", "", prom_double(metrics.qps_60s));

  prom_header(out, "vlcsa_request_latency_seconds", "histogram", "Request handler wall time.");
  prom_histogram(out, "vlcsa_request_latency_seconds", "", bounds, metrics.latency_buckets,
                 metrics.latency_sum_seconds, metrics.requests_total);
  prom_header(out, "vlcsa_stage_latency_seconds", "histogram",
              "Per-stage request time, from trace spans (populated while "
              "tracing is active).");
  for (const StageLatency& stage : metrics.stages) {
    prom_histogram(out, "vlcsa_stage_latency_seconds", "stage=\"" + stage.name + "\",",
                   bounds, stage.buckets, stage.sum_seconds, stage.count);
  }

  prom_rows(out, cache, kCacheStatsRows);
  return out;
}

}  // namespace vlcsa::service
