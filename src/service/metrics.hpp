#pragma once
// Service-side traffic metrics for the experiment daemon (service.hpp): the
// counters and latency distribution behind the protocol's "metrics" request.
//
// Everything here describes *served traffic*, never experiment results —
// result records stay pure functions of (experiment, samples, seed, eval
// path) and contain no wall time; latency, qps and the in-flight gauge live
// only in metrics/run responses, which are never cached.
//
// Latency is recorded into a fixed-bucket histogram (1-2-5 series over
// microseconds, 1 us .. 2000 s) so quantile queries are O(buckets), the
// memory footprint is constant for any traffic volume, and p50/p95/p99 are a
// deterministic function of the recorded durations (each reported quantile
// is the upper bound of the bucket containing it).  All methods are
// thread-safe — the socket workers record concurrently.

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "service/cache.hpp"
#include "service/trace.hpp"

namespace vlcsa::service {

/// One (name, count) pair of the per-request-type breakdown.
struct RequestTypeCount {
  std::string name;
  std::uint64_t count = 0;
};

/// One stage's latency histogram (per-stage request breakdown, fed from the
/// trace spans — see ServiceMetrics::record_request).  `buckets` is parallel
/// to latency_bucket_bounds_seconds() plus one overflow slot.
struct StageLatency {
  std::string name;
  std::vector<std::uint64_t> buckets;
  double sum_seconds = 0.0;
  std::uint64_t count = 0;
};

/// Snapshot returned by ServiceMetrics::snapshot(); plain data so the
/// response renderer (service.cpp) and tests consume the same numbers.
struct MetricsSnapshot {
  std::uint64_t requests_total = 0;
  std::uint64_t ok_total = 0;
  std::uint64_t error_total = 0;
  std::uint64_t timeouts = 0;            // run/run-batch elements cancelled by deadline
  std::uint64_t batch_elements = 0;      // run-batch elements processed (ok or error)
  std::uint64_t sweep_requests = 0;      // run/run-batch requests declaring origin "sweep"
  std::uint64_t sweep_cells = 0;         // sweep cells those requests carried
  std::uint64_t rejected_connections = 0;  // accept-loop backlog rejections
  std::uint64_t in_flight = 0;           // requests currently inside a handler
  std::uint64_t draining = 0;            // 1 while a graceful drain is under way
  double uptime_seconds = 0.0;
  double qps = 0.0;                      // requests_total / uptime (lifetime)
  double qps_60s = 0.0;                  // rate over the last 60 s ring
  double latency_p50_seconds = 0.0;      // bucket upper bounds (see header note)
  double latency_p95_seconds = 0.0;
  double latency_p99_seconds = 0.0;
  double latency_max_seconds = 0.0;      // exact, not bucketed
  double latency_sum_seconds = 0.0;      // exact sum (histogram _sum)
  std::vector<std::uint64_t> latency_buckets;  // per-bucket counts (+overflow)
  std::vector<RequestTypeCount> by_type;  // registration order, see kRequestTypes
  std::vector<StageLatency> stages;       // per-stage latency, stage_names() order
};

class ServiceMetrics {
 public:
  ServiceMetrics();

  /// Scoped in-flight gauge: constructed when a handler starts, destroyed
  /// when it returns (including via exception).
  class InFlight {
   public:
    explicit InFlight(ServiceMetrics& metrics);
    ~InFlight();
    InFlight(const InFlight&) = delete;
    InFlight& operator=(const InFlight&) = delete;

   private:
    ServiceMetrics& metrics_;
  };

  /// Records one completed request line: its protocol type (a kRequestTypes
  /// name, or "invalid" for lines that never reached a handler), whether the
  /// response said ok, the handler wall time, and its trace spans (empty when
  /// untraced), whose durations feed the per-stage latency histograms.  The
  /// depth-0 root span is skipped (its distribution is the request latency
  /// histogram itself), and span names outside stage_names() are ignored so
  /// the histogram label set stays fixed for scrapers.  One lock per request.
  void record_request(const std::string& type, bool ok, double seconds,
                      std::span<const TraceSpan> spans = {});

  /// One run/run-batch element hit its deadline and was cancelled.
  void record_timeout();

  /// One run-batch element was processed (counted in addition to the
  /// enclosing run-batch request itself).
  void record_batch_element();

  /// One run/run-batch request declared "origin": "sweep", carrying `cells`
  /// grid cells (1 for a run, the element count for a run-batch) — the
  /// daemon-side view of sweep traffic an operator watches from Prometheus
  /// while a grid hammers a replica.
  void record_sweep_request(std::uint64_t cells);

  /// The accept loop turned a connection away because the pending queue was
  /// at its backlog cap.
  void record_rejected_connection();

  /// Flips the drain gauge (begin_drain sets it; it never clears in practice
  /// — a draining daemon exits).
  void set_draining(bool draining);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// The request-type names the breakdown tracks ("invalid" last).
  [[nodiscard]] static const std::vector<std::string>& request_types();

  /// The stage names record_request bins span durations under — the trace
  /// span names the service emits (service.cpp), which double as the `stage`
  /// label values of the Prometheus exposition.
  [[nodiscard]] static const std::vector<std::string>& stage_names();

  /// Upper bucket bounds of every latency histogram, in seconds (the 1-2-5
  /// microsecond series below); the final implicit bucket is open-ended.
  [[nodiscard]] static std::vector<double> latency_bucket_bounds_seconds();

 private:
  // Upper bucket bounds in microseconds (1-2-5 series); the final bucket is
  // open-ended.  Exposed indirectly through quantiles only.
  static constexpr std::array<std::uint64_t, 28> kBucketBoundsUs = {
      1,       2,       5,       10,       20,       50,       100,      200,      500,
      1000,    2000,    5000,    10000,    20000,    50000,    100000,   200000,   500000,
      1000000, 2000000, 5000000, 10000000, 20000000, 50000000, 100000000, 200000000,
      500000000, 1000000000};

  using Buckets = std::array<std::uint64_t, kBucketBoundsUs.size() + 1>;  // +1: overflow

  /// The bucket a duration falls in (index into Buckets).
  [[nodiscard]] static std::size_t bucket_index(double seconds);

  mutable std::mutex mutex_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t requests_total_ = 0;
  std::uint64_t ok_total_ = 0;
  std::uint64_t error_total_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t batch_elements_ = 0;
  std::uint64_t sweep_requests_ = 0;
  std::uint64_t sweep_cells_ = 0;
  std::uint64_t rejected_connections_ = 0;
  std::uint64_t in_flight_ = 0;
  bool draining_ = false;
  double latency_max_seconds_ = 0.0;
  double latency_sum_seconds_ = 0.0;
  Buckets buckets_{};
  std::vector<std::uint64_t> by_type_;  // parallel to request_types()

  // Last-60-seconds request ring for qps_60s: slot = second % 60, tagged
  // with second + 1 (0 = never written) so stale slots from an idle gap are
  // recognized at snapshot time instead of being advanced on every record.
  std::array<std::uint64_t, 60> second_counts_{};
  std::array<std::uint64_t, 60> second_stamps_{};

  /// One stage's histogram state (parallel to stage_names()).
  struct StageState {
    Buckets buckets{};
    double sum_seconds = 0.0;
    std::uint64_t count = 0;
  };
  std::vector<StageState> stages_;
};

/// Renders a metrics snapshot + cache stats in the Prometheus text
/// exposition format, version 0.0.4 (the "metrics-prom" request's body —
/// see DESIGN.md).  Counter/gauge names are prefixed "vlcsa_"; both latency
/// histograms use cumulative le-labeled buckets in seconds.
[[nodiscard]] std::string render_prometheus_text(const MetricsSnapshot& metrics,
                                                 const CacheStats& cache);

}  // namespace vlcsa::service
