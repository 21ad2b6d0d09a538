// Tests for the service traffic metrics (service/metrics.hpp) and the
// protocol "metrics" request: counters across a scripted request sequence,
// the fixed-bucket latency quantiles, and the determinism boundary — metrics
// values appear only in responses, never in cached result records.

#include "service/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "harness/json.hpp"
#include "service/cache.hpp"
#include "service/service.hpp"

namespace vlcsa::service {
namespace {

using harness::JsonValue;
using harness::parse_json;

/// The request_types() index record_request takes; a name outside the
/// table maps past its end, which record_request counts as "invalid".
std::size_t type_index(std::string_view name) {
  const auto& types = ServiceMetrics::request_types();
  return static_cast<std::size_t>(std::find(types.begin(), types.end(), name) - types.begin());
}

std::uint64_t u64_field(const JsonValue& object, const char* name) {
  std::uint64_t value = 0;
  const JsonValue* field = object.find(name);
  EXPECT_NE(field, nullptr) << name;
  if (field != nullptr) {
    EXPECT_TRUE(field->to_u64(value)) << name;
  }
  return value;
}

TEST(ServiceMetrics, QuantilesComeFromBucketUpperBounds) {
  ServiceMetrics metrics;
  // 99 fast requests in the (500 us, 1 ms] bucket and one slow outlier in
  // the (100 ms, 200 ms] bucket: p50/p95 report 1 ms, p99 too (rank 99 of
  // 100 still lands in the fast bucket), and max is exact.
  for (int i = 0; i < 99; ++i) metrics.record_request(type_index("list"), true, 0.0008);
  metrics.record_request(type_index("run"), true, 0.150);
  const MetricsSnapshot snapshot = metrics.snapshot();
  EXPECT_DOUBLE_EQ(snapshot.latency_p50_seconds, 0.001);
  EXPECT_DOUBLE_EQ(snapshot.latency_p95_seconds, 0.001);
  EXPECT_DOUBLE_EQ(snapshot.latency_p99_seconds, 0.001);
  EXPECT_DOUBLE_EQ(snapshot.latency_max_seconds, 0.150);
  EXPECT_EQ(snapshot.requests_total, 100u);
}

TEST(ServiceMetrics, TailQuantileReachesTheSlowBucket) {
  ServiceMetrics metrics;
  for (int i = 0; i < 90 ; ++i) metrics.record_request(type_index("list"), true, 0.0008);
  for (int i = 0; i < 10; ++i) metrics.record_request(type_index("run"), true, 0.150);
  const MetricsSnapshot snapshot = metrics.snapshot();
  EXPECT_DOUBLE_EQ(snapshot.latency_p50_seconds, 0.001);
  EXPECT_DOUBLE_EQ(snapshot.latency_p95_seconds, 0.2);  // (100 ms, 200 ms] bucket bound
  EXPECT_DOUBLE_EQ(snapshot.latency_p99_seconds, 0.2);
}

TEST(ServiceMetrics, QuantilesUseTheNearestRank) {
  // Nearest rank is ceil(q * n): p99 of 50 requests is the 50th, the slow
  // one, and p50 of 3 requests is the 2nd.  A floored rank (49th, 1st)
  // would report the fast bucket in both cases.
  ServiceMetrics fifty;
  for (int i = 0; i < 49; ++i) fifty.record_request(type_index("list"), true, 0.0008);
  fifty.record_request(type_index("run"), true, 0.150);
  EXPECT_DOUBLE_EQ(fifty.snapshot().latency_p50_seconds, 0.001);
  EXPECT_DOUBLE_EQ(fifty.snapshot().latency_p99_seconds, 0.2);

  ServiceMetrics three;
  three.record_request(type_index("list"), true, 0.0008);
  three.record_request(type_index("run"), true, 0.150);
  three.record_request(type_index("run"), true, 0.150);
  EXPECT_DOUBLE_EQ(three.snapshot().latency_p50_seconds, 0.2);
}

TEST(ServiceMetrics, CountsByTypeWithInvalidFallback) {
  ServiceMetrics metrics;
  metrics.record_request(type_index("run"), true, 0.001);
  metrics.record_request(type_index("run"), false, 0.001);
  metrics.record_request(type_index("list"), true, 0.001);
  metrics.record_request(type_index("invalid"), false, 0.001);
  metrics.record_request(type_index("never-heard-of-it"), false, 0.001);  // folds into "invalid"
  const MetricsSnapshot snapshot = metrics.snapshot();
  EXPECT_EQ(snapshot.requests_total, 5u);
  EXPECT_EQ(snapshot.ok_total, 2u);
  EXPECT_EQ(snapshot.error_total, 3u);
  std::uint64_t runs = 0, lists = 0, invalid = 0;
  for (const RequestTypeCount& entry : snapshot.by_type) {
    if (entry.name == "run") runs = entry.count;
    if (entry.name == "list") lists = entry.count;
    if (entry.name == "invalid") invalid = entry.count;
  }
  EXPECT_EQ(runs, 2u);
  EXPECT_EQ(lists, 1u);
  EXPECT_EQ(invalid, 2u);
}

TEST(ServiceMetrics, InFlightGaugeTracksScope) {
  ServiceMetrics metrics;
  EXPECT_EQ(metrics.snapshot().in_flight, 0u);
  {
    const ServiceMetrics::InFlight guard(metrics);
    EXPECT_EQ(metrics.snapshot().in_flight, 1u);
    {
      const ServiceMetrics::InFlight nested(metrics);
      EXPECT_EQ(metrics.snapshot().in_flight, 2u);
    }
  }
  EXPECT_EQ(metrics.snapshot().in_flight, 0u);
}

TEST(ServiceMetrics, DrainingGaugeFollowsSetDraining) {
  ServiceMetrics metrics;
  EXPECT_EQ(metrics.snapshot().draining, 0u);
  metrics.set_draining(true);
  EXPECT_EQ(metrics.snapshot().draining, 1u);
  const std::string text = render_prometheus_text(metrics.snapshot(), CacheStats{});
  EXPECT_NE(text.find("vlcsa_draining 1"), std::string::npos);
  metrics.set_draining(false);
  EXPECT_EQ(metrics.snapshot().draining, 0u);
}

TEST(ServiceMetrics, TypeListMatchesDispatchTablePlusInvalid) {
  // request_types() must be exactly the dispatch table's names plus the
  // "invalid" fallback slot, in order.
  const auto& types = ServiceMetrics::request_types();
  const auto names = ExperimentService::request_names();
  ASSERT_EQ(types.size(), names.size() + 1);
  for (std::size_t i = 0; i < names.size(); ++i) EXPECT_EQ(types[i], names[i]);
  EXPECT_EQ(types.back(), "invalid");
}

TEST(MetricsRequest, CountersAcrossAScriptedSequence) {
  ExperimentService service({"", 16, 1});
  // Scripted traffic: 1 ok run (miss), 1 ok repeat (hit), 1 unknown request,
  // 1 malformed line, 1 ok list.
  const char* run = R"({"request": "run", "experiment": "fig7.1/n64-k6", "samples": 2000})";
  EXPECT_TRUE(service.handle_line(run).ok);
  EXPECT_TRUE(service.handle_line(run).ok);
  EXPECT_FALSE(service.handle_line(R"({"request": "frobnicate"})").ok);
  EXPECT_FALSE(service.handle_line("garbage").ok);
  EXPECT_TRUE(service.handle_line(R"({"request": "list"})").ok);

  const ExperimentService::Reply reply =
      service.handle_line(R"({"request": "metrics"})");
  ASSERT_TRUE(reply.ok);
  const harness::JsonParse parsed = parse_json(reply.line);
  ASSERT_TRUE(parsed.ok()) << reply.line;
  const JsonValue& response = parsed.value;

  // The snapshot predates the metrics request itself.
  EXPECT_EQ(u64_field(response, "requests_total"), 5u);
  EXPECT_EQ(u64_field(response, "ok_total"), 3u);
  EXPECT_EQ(u64_field(response, "error_total"), 2u);
  EXPECT_EQ(u64_field(response, "timeouts"), 0u);
  EXPECT_EQ(u64_field(response, "in_flight"), 1u);  // the metrics request itself
  EXPECT_EQ(u64_field(response, "cache_hits"), 1u);
  EXPECT_EQ(u64_field(response, "cache_misses"), 1u);
  const JsonValue* ratio = response.find("cache_hit_ratio");
  ASSERT_NE(ratio, nullptr);

  const JsonValue* by_type = response.find("requests_by_type");
  ASSERT_NE(by_type, nullptr);
  EXPECT_EQ(u64_field(*by_type, "run"), 2u);
  EXPECT_EQ(u64_field(*by_type, "list"), 1u);
  EXPECT_EQ(u64_field(*by_type, "invalid"), 2u);  // unknown request + garbage

  // A second metrics request sees the first one counted.
  const harness::JsonParse again =
      parse_json(service.handle_line(R"({"request": "metrics"})").line);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(u64_field(again.value, "requests_total"), 6u);
  EXPECT_EQ(u64_field(*again.value.find("requests_by_type"), "metrics"), 1u);
}

TEST(MetricsRequest, HitRatioCountsCoalescedHitsLikeCacheStats) {
  // One leader miss plus one coalesced follower: both replies count every
  // lookup that answered a run, so both ratios read 0.5.
  ExperimentService service({"", 16, 1});
  EXPECT_TRUE(
      service
          .handle_line(
              R"({"request": "run", "experiment": "fig7.1/n64-k6", "samples": 2000})")
          .ok);
  service.cache().add({.coalesced_hits = 1});

  const harness::JsonParse stats =
      parse_json(service.handle_line(R"({"request": "cache-stats"})").line);
  const harness::JsonParse metrics =
      parse_json(service.handle_line(R"({"request": "metrics"})").line);
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(metrics.ok());
  const JsonValue* hit_ratio = stats.value.find("hit_ratio");
  const JsonValue* cache_hit_ratio = metrics.value.find("cache_hit_ratio");
  ASSERT_NE(hit_ratio, nullptr);
  ASSERT_NE(cache_hit_ratio, nullptr);
  EXPECT_DOUBLE_EQ(hit_ratio->as_double(), 0.5);
  EXPECT_DOUBLE_EQ(cache_hit_ratio->as_double(), hit_ratio->as_double());
  EXPECT_EQ(u64_field(metrics.value, "cache_hits"), 1u);
}

TEST(MetricsRequest, BatchElementsAndStrictValidation) {
  ExperimentService service({"", 16, 1});
  const std::string batch =
      R"({"request": "run-batch", "runs": [)"
      R"({"experiment": "fig7.1/n64-k6", "samples": 2000}, )"
      R"({"experiment": "no/such"}]})";
  EXPECT_TRUE(service.handle_line(batch).ok);
  EXPECT_FALSE(service.handle_line(R"({"request": "metrics", "verbose": true})").ok);

  const harness::JsonParse parsed =
      parse_json(service.handle_line(R"({"request": "metrics"})").line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(u64_field(parsed.value, "batch_elements"), 2u);
  EXPECT_EQ(u64_field(*parsed.value.find("requests_by_type"), "run-batch"), 1u);
}

TEST(ServiceMetrics, RecentQpsMatchesLifetimeQpsEarlyInUptime) {
  // With uptime under 60 s every recorded request is inside the ring's
  // window, so the windowed rate and the lifetime average are the same
  // number — the property that makes qps_60s trustworthy from first scrape.
  ServiceMetrics metrics;
  for (int i = 0; i < 50; ++i) metrics.record_request(type_index("list"), true, 0.0001);
  const MetricsSnapshot snapshot = metrics.snapshot();
  EXPECT_EQ(snapshot.requests_total, 50u);
  EXPECT_GT(snapshot.qps, 0.0);
  EXPECT_DOUBLE_EQ(snapshot.qps_60s, snapshot.qps);
}

TEST(ServiceMetrics, StageHistogramsTrackRecordedSpans) {
  ServiceMetrics metrics;
  // Span durations are whole microseconds (trace.hpp).
  const std::vector<TraceSpan> first = {
      {"request", 0, 0, 60000},     // ignored: the root is the request histogram
      {"parse", 1, 0, 1},           // -> 1 us bucket
      {"engine-run", 1, 1, 50000},
      {"not-a-stage", 1, 50001, 1000000},  // ignored: fixed label set
  };
  const std::vector<TraceSpan> second = {{"parse", 1, 0, 800}};  // -> 1 ms bucket
  metrics.record_request(type_index("run"), true, 0.06, first);
  metrics.record_request(type_index("run"), true, 0.001, second);

  const MetricsSnapshot snapshot = metrics.snapshot();
  ASSERT_EQ(snapshot.stages.size(), ServiceMetrics::stage_names().size());
  const auto find_stage = [&](const char* name) -> const StageLatency* {
    for (const StageLatency& stage : snapshot.stages) {
      if (stage.name == name) return &stage;
    }
    return nullptr;
  };
  const StageLatency* parse = find_stage("parse");
  ASSERT_NE(parse, nullptr);
  EXPECT_EQ(parse->count, 2u);
  EXPECT_DOUBLE_EQ(parse->sum_seconds, 0.000801);
  const StageLatency* engine = find_stage("engine-run");
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->count, 1u);
  EXPECT_EQ(find_stage("not-a-stage"), nullptr);
  std::uint64_t bucketed = 0;
  for (const std::uint64_t count : parse->buckets) bucketed += count;
  EXPECT_EQ(bucketed, 2u);
  EXPECT_EQ(parse->buckets[0], 1u);  // 1 us
  EXPECT_EQ(parse->buckets[9], 1u);  // 1 ms
  EXPECT_DOUBLE_EQ(engine->sum_seconds, 0.05);
}

TEST(ServiceMetrics, PrometheusExpositionIsWellFormed) {
  ServiceMetrics metrics;
  metrics.record_request(type_index("run"), true, 0.002);
  const std::vector<TraceSpan> spans = {{"parse", 1, 0, 50}};
  metrics.record_request(type_index("list"), false, 0.0001, spans);
  CacheStats cache;
  cache.memory_hits = 3;
  cache.disk_hits = 1;
  cache.coalesced_hits = 2;
  cache.misses = 4;

  const std::string text = render_prometheus_text(metrics.snapshot(), cache);

  // Every non-comment line is `name{labels} value` with a finite value.
  std::istringstream in(text);
  std::string line;
  std::size_t samples = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.rfind("vlcsa_", 0), 0u) << line;
    const double value = std::stod(line.substr(space + 1));
    EXPECT_FALSE(std::isnan(value)) << line;
    ++samples;
  }
  EXPECT_GT(samples, 20u);

  for (const char* needle :
       {"# TYPE vlcsa_requests_total counter", "vlcsa_requests_total 2",
        "vlcsa_requests_by_type_total{type=\"run\"} 1",
        "vlcsa_cache_hits_total{tier=\"memory\"} 3",
        "vlcsa_cache_hits_total{tier=\"coalesced\"} 2",
        "vlcsa_request_latency_seconds_bucket{le=\"+Inf\"} 2",
        "vlcsa_request_latency_seconds_count 2",
        "vlcsa_stage_latency_seconds_bucket{stage=\"parse\",le=\"+Inf\"} 1",
        "vlcsa_qps_60s"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }

  // Text format 0.0.4: each family has exactly one # HELP and one # TYPE
  // line, in that order, ahead of its samples, and its samples are
  // contiguous (a sample's family is its name minus a histogram suffix).
  {
    std::istringstream lines(text);
    std::set<std::string> helped;
    std::set<std::string> typed;
    std::set<std::string> closed;  // families whose samples have ended
    std::string current;
    while (std::getline(lines, line)) {
      if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
        const std::string family = line.substr(7, line.find(' ', 7) - 7);
        const bool help = line[2] == 'H';
        EXPECT_TRUE((help ? helped : typed).insert(family).second) << "repeated: " << line;
        if (!help) {
          EXPECT_EQ(helped.count(family), 1u) << "# TYPE before # HELP: " << line;
        }
        continue;
      }
      std::string family = line.substr(0, line.find_first_of("{ "));
      for (const std::string_view suffix : {"_bucket", "_sum", "_count"}) {
        if (typed.count(family) == 0 && family.ends_with(suffix)) {
          family.resize(family.size() - suffix.size());
        }
      }
      EXPECT_EQ(typed.count(family), 1u) << "sample ahead of its # TYPE: " << line;
      if (family != current) {
        EXPECT_EQ(closed.count(family), 0u) << "family split: " << line;
        if (!current.empty()) closed.insert(current);
        current = family;
      }
    }
    EXPECT_EQ(helped, typed);
  }

  // Cumulative-histogram invariant: bucket counts never decrease with le.
  std::istringstream again(text);
  std::uint64_t last = 0;
  bool in_request_histogram = false;
  while (std::getline(again, line)) {
    const bool bucket = line.rfind("vlcsa_request_latency_seconds_bucket", 0) == 0;
    if (bucket && !in_request_histogram) {
      in_request_histogram = true;
      last = 0;
    }
    if (!bucket) {
      in_request_histogram = false;
      continue;
    }
    const std::uint64_t count = std::stoull(line.substr(line.rfind(' ') + 1));
    EXPECT_GE(count, last) << line;
    last = count;
  }
}

TEST(MetricsRequest, PromRequestWrapsTheExpositionInAnEnvelope) {
  ExperimentService service({"", 16, 1});
  EXPECT_TRUE(
      service
          .handle_line(
              R"({"request": "run", "experiment": "fig7.1/n64-k6", "samples": 2000})")
          .ok);

  const ExperimentService::Reply reply =
      service.handle_line(R"({"request": "metrics-prom"})");
  ASSERT_TRUE(reply.ok);
  const harness::JsonParse parsed = parse_json(reply.line);
  ASSERT_TRUE(parsed.ok()) << reply.line;
  const JsonValue* content_type = parsed.value.find("content_type");
  ASSERT_NE(content_type, nullptr);
  EXPECT_EQ(content_type->as_string(), "text/plain; version=0.0.4");
  const JsonValue* body = parsed.value.find("body");
  ASSERT_NE(body, nullptr);
  ASSERT_EQ(body->kind(), JsonValue::Kind::kString);
  const std::string& text = body->as_string();
  EXPECT_NE(text.find("vlcsa_requests_total 1"), std::string::npos);
  EXPECT_NE(text.find("vlcsa_cache_misses_total 1"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');

  // Strict validation: metrics-prom takes no other fields.
  EXPECT_FALSE(service.handle_line(R"({"request": "metrics-prom", "x": 1})").ok);
}

TEST(ServiceMetrics, SweepCountersAccumulateCellsPerRequest) {
  ServiceMetrics metrics;
  EXPECT_EQ(metrics.snapshot().sweep_requests, 0u);
  EXPECT_EQ(metrics.snapshot().sweep_cells, 0u);
  metrics.add({.sweep_requests = 1, .sweep_cells = 2});
  metrics.add({.sweep_requests = 1, .sweep_cells = 1});
  const MetricsSnapshot snapshot = metrics.snapshot();
  EXPECT_EQ(snapshot.sweep_requests, 2u);
  EXPECT_EQ(snapshot.sweep_cells, 3u);

  const std::string text = render_prometheus_text(snapshot, CacheStats{});
  EXPECT_NE(text.find("vlcsa_sweep_requests_total 2\n"), std::string::npos);
  EXPECT_NE(text.find("vlcsa_sweep_cells_total 3\n"), std::string::npos);
}

}  // namespace
}  // namespace vlcsa::service
