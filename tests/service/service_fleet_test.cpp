// Fleet scenarios for the experiment service: the graceful-drain protocol
// (drain request, "draining"-coded refusals, deadline cancellation), the
// cross-replica compute lease observed through a live service, and the
// client's retry/backoff resilience against conversation churn
// (max-requests-per-conn bounces, idle timeouts).

#include "service/service.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "harness/experiments.hpp"
#include "harness/json.hpp"
#include "service/server.hpp"

namespace vlcsa::service {
namespace {

using harness::JsonParse;
using harness::JsonValue;
using harness::parse_json;

constexpr const char* kErrorRateRun =
    R"({"request": "run", "experiment": "fig7.1/n64-k6", "samples": 2000})";
// Big enough that cancellation always lands before completion.
constexpr const char* kLongRun =
    R"({"request": "run", "experiment": "fig7.1/n64-k6", "samples": 40000000000})";

std::string temp_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("vlcsa_service_fleet_" + std::to_string(::getpid()) + "_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

JsonValue parse_line(const std::string& line) {
  JsonParse parse = parse_json(line);
  EXPECT_TRUE(parse.ok()) << line << " -> " << parse.error;
  EXPECT_EQ(parse.value.kind(), JsonValue::Kind::kObject);
  return parse.value;
}

JsonValue parse_reply(const ExperimentService::Reply& reply) { return parse_line(reply.line); }

std::string field(const JsonValue& response, const char* name) {
  const JsonValue* value = response.find(name);
  return value != nullptr && value->kind() == JsonValue::Kind::kString ? value->as_string()
                                                                       : std::string();
}

bool bool_field(const JsonValue& response, const char* name) {
  const JsonValue* value = response.find(name);
  return value != nullptr && value->kind() == JsonValue::Kind::kBool && value->as_bool();
}

/// The cache key every request in this file resolves to (defaults: seed 1,
/// batched path), stream_version included — taken from the registry, as
/// the service takes it.
harness::RecordKey error_rate_key(std::uint64_t samples) {
  const harness::KeyResolution resolved = harness::record_key("fig7.1/n64-k6", samples, 1);
  EXPECT_TRUE(resolved.ok());
  return resolved.key;
}

TEST(ServiceDrain, DrainReplyThenRunsRefusedObservationStillServed) {
  ExperimentService service({temp_dir("drain"), 64, 1});
  EXPECT_FALSE(service.draining());

  const ExperimentService::Reply reply = service.handle_line(R"({"request": "drain"})");
  EXPECT_TRUE(reply.drain);
  EXPECT_FALSE(reply.shutdown);
  const JsonValue response = parse_reply(reply);
  EXPECT_EQ(field(response, "status"), "ok");
  EXPECT_TRUE(bool_field(response, "draining"));
  ASSERT_NE(response.find("active_runs"), nullptr);
  EXPECT_TRUE(service.draining());

  // New runs bounce with the machine-readable drain code...
  const JsonValue run = parse_reply(service.handle_line(kErrorRateRun));
  EXPECT_EQ(field(run, "status"), "error");
  EXPECT_EQ(field(run, "code"), "draining");
  const JsonValue batch = parse_reply(service.handle_line(
      R"({"request": "run-batch", "runs": [{"experiment": "fig7.1/n64-k6", "samples": 2000}]})"));
  EXPECT_EQ(field(batch, "code"), "draining");

  // ... while observational requests keep working so rotation scripts can
  // watch the drain converge.
  const JsonValue list = parse_reply(service.handle_line(R"({"request": "list"})"));
  EXPECT_EQ(field(list, "status"), "ok");
  const JsonValue metrics = parse_reply(service.handle_line(R"({"request": "metrics"})"));
  EXPECT_EQ(field(metrics, "status"), "ok");
  EXPECT_TRUE(bool_field(metrics, "draining"));

  // The Prometheus exposition flips its gauge too.
  const JsonValue prom = parse_reply(service.handle_line(R"({"request": "metrics-prom"})"));
  const JsonValue* body = prom.find("body");
  ASSERT_NE(body, nullptr);
  EXPECT_NE(body->as_string().find("vlcsa_draining 1"), std::string::npos);
}

TEST(ServiceDrain, MetricsGaugeIsZeroBeforeDrain) {
  ExperimentService service({"", 64, 1});
  const JsonValue metrics = parse_reply(service.handle_line(R"({"request": "metrics"})"));
  const JsonValue* draining = metrics.find("draining");
  ASSERT_NE(draining, nullptr);
  EXPECT_EQ(draining->kind(), JsonValue::Kind::kBool);
  EXPECT_FALSE(draining->as_bool());
  const JsonValue prom = parse_reply(service.handle_line(R"({"request": "metrics-prom"})"));
  EXPECT_NE(prom.find("body")->as_string().find("vlcsa_draining 0"), std::string::npos);
}

TEST(ServiceDrain, DrainRequestIsStrictAboutFields) {
  ExperimentService service({"", 64, 1});
  const JsonValue response =
      parse_reply(service.handle_line(R"({"request": "drain", "force": true})"));
  EXPECT_EQ(field(response, "status"), "error");
  EXPECT_FALSE(service.draining());
}

TEST(ServiceDrain, StdioConversationEndsAtDrain) {
  ExperimentService service({"", 64, 1});
  std::istringstream in(
      "{\"request\": \"drain\"}\n"
      "{\"request\": \"list\"}\n");
  std::ostringstream out;
  // The drain reply ends the conversation — the trailing list line is never
  // read, exactly like shutdown on this one-conversation transport.
  EXPECT_EQ(serve_stdio(in, out, service), 1u);
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_TRUE(bool_field(parse_line(line), "draining"));
  EXPECT_FALSE(std::getline(lines, line));
}

TEST(ServiceDrain, DeadlineCancellationAnswersDrainingNotTimeout) {
  ExperimentService service({"", 64, 1});
  ExperimentService::Reply reply;
  std::thread runner([&] { reply = service.handle_line(kLongRun); });

  // Wait for the run to register, then simulate the server's drain deadline:
  // flip into drain mode and cancel in-flight work.
  for (int i = 0; i < 2000 && service.active_runs() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.active_runs(), 1u);
  service.begin_drain();
  service.cancel_active_runs();
  runner.join();

  const JsonValue response = parse_reply(reply);
  EXPECT_EQ(field(response, "status"), "error");
  EXPECT_EQ(field(response, "code"), "draining");
  // A drain cancellation is not a deadline miss: the timeout counter and the
  // timeout code stay untouched.
  EXPECT_EQ(service.metrics().snapshot().timeouts, 0u);
}

TEST(ServiceFleet, LeaderWaitsOnForeignLeaseThenHitsDisk) {
  const std::string dir = temp_dir("leasewait");
  ExperimentService service({dir, 64, 1});
  const harness::RecordKey key = error_rate_key(2000);

  // A peer replica "holds" the compute lease for this key.
  const std::string lease_path = service.cache().lease_path(key);
  {
    std::ofstream out(lease_path);
    out << "424242\n";
  }

  ExperimentService::Reply reply;
  std::thread runner([&] { reply = service.handle_line(kErrorRateRun); });

  // While the leader is parked on the lease, the "peer" finishes: produce
  // the record out-of-band (a second service over its own directory), copy
  // it in, release the lease.
  const std::string peer_dir = temp_dir("leasewait_peer");
  {
    ExperimentService peer({peer_dir, 64, 1});
    const JsonValue response = parse_reply(peer.handle_line(kErrorRateRun));
    ASSERT_EQ(field(response, "status"), "ok");
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const harness::RecordKey peer_key = error_rate_key(2000);
  std::filesystem::copy_file(ResultCache(peer_dir, 0).file_path(peer_key),
                             service.cache().file_path(key));
  std::filesystem::remove(lease_path);
  runner.join();

  const JsonValue response = parse_reply(reply);
  EXPECT_EQ(field(response, "status"), "ok");
  EXPECT_EQ(field(response, "cache"), "hit-disk");
  const CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.lease_waits, 1u);
  EXPECT_EQ(stats.disk_hits, 1u);
  EXPECT_EQ(stats.stores, 0u);  // the wait saved the recompute entirely
}

TEST(ServiceFleet, StaleForeignLeaseIsTakenOverAndRunProceeds) {
  const std::string dir = temp_dir("takeover");
  ServiceConfig config;
  config.cache_dir = dir;
  config.threads = 1;
  config.lease_stale_ms = 50;
  ExperimentService service(config);

  // A crashed peer left a lease behind (created after construction so the
  // startup reap does not sweep it; backdated past the staleness bound).
  const harness::RecordKey key = error_rate_key(2000);
  const std::string lease_path = service.cache().lease_path(key);
  {
    std::ofstream out(lease_path);
    out << "424242\n";
  }
  std::filesystem::last_write_time(
      lease_path, std::filesystem::last_write_time(lease_path) - std::chrono::seconds(60));

  const JsonValue response = parse_reply(service.handle_line(kErrorRateRun));
  EXPECT_EQ(field(response, "status"), "ok");
  EXPECT_EQ(field(response, "cache"), "miss");  // took over and computed
  EXPECT_EQ(service.cache_stats().lease_takeovers, 1u);
  EXPECT_FALSE(std::filesystem::exists(lease_path));  // released after the store
  EXPECT_TRUE(std::filesystem::exists(service.cache().file_path(key)));

  // cache-stats reports the fleet counters.
  const JsonValue stats = parse_reply(service.handle_line(R"({"request": "cache-stats"})"));
  std::uint64_t takeovers = 0;
  ASSERT_NE(stats.find("lease_takeovers"), nullptr);
  ASSERT_TRUE(stats.find("lease_takeovers")->to_u64(takeovers));
  EXPECT_EQ(takeovers, 1u);
  ASSERT_NE(stats.find("lease_waits"), nullptr);
}

TEST(SocketServerDrain, DrainRequestStopsServeCleanly) {
  ExperimentService service({"", 64, 1});
  const std::string socket_path = temp_dir("drainsock") + "/vlcsa.sock";
  SocketServer::Options options;
  options.workers = 2;
  options.drain_ms = 2000;
  SocketServer server({ListenerSpec::unix_socket(socket_path)}, service, options);
  ASSERT_EQ(server.listen_or_error(), "");
  std::string serve_result = "unset";
  std::thread serving([&] { serve_result = server.serve(); });

  ServiceClient client;
  ASSERT_EQ(client.connect_or_error(socket_path, /*timeout_ms=*/2000), "");
  std::string response;
  ASSERT_EQ(client.roundtrip(R"({"request": "drain"})", response), "");
  EXPECT_TRUE(bool_field(parse_line(response), "draining"));

  // No in-flight work, the drain conversation ended with its reply: serve()
  // converges without waiting for the deadline, exactly like a clean stop.
  serving.join();
  EXPECT_EQ(serve_result, "");
  EXPECT_FALSE(std::filesystem::exists(socket_path));  // listener unlinked
}

TEST(SocketServerDrain, BeginDrainCancelsInFlightRunAtDeadline) {
  ExperimentService service({"", 64, 1});
  const std::string socket_path = temp_dir("draincancel") + "/vlcsa.sock";
  SocketServer::Options options;
  options.workers = 2;
  options.drain_ms = 100;  // deadline fires quickly; the long run must die
  SocketServer server({ListenerSpec::unix_socket(socket_path)}, service, options);
  ASSERT_EQ(server.listen_or_error(), "");
  std::string serve_result = "unset";
  std::thread serving([&] { serve_result = server.serve(); });

  ServiceClient client;
  ASSERT_EQ(client.connect_or_error(socket_path, /*timeout_ms=*/2000), "");
  std::string response;
  std::thread requester([&] { ASSERT_EQ(client.roundtrip(kLongRun, response), ""); });
  for (int i = 0; i < 2000 && service.active_runs() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.active_runs(), 1u);

  server.begin_drain();  // what the SIGTERM watcher thread calls
  requester.join();
  serving.join();
  EXPECT_EQ(serve_result, "");
  const JsonValue parsed = parse_line(response);
  EXPECT_EQ(field(parsed, "status"), "error");
  EXPECT_EQ(field(parsed, "code"), "draining");
}

TEST(ServiceClientRetry, ReconnectsThroughMaxRequestsPerConnBounces) {
  ExperimentService service({"", 64, 1});
  const std::string socket_path = temp_dir("bounce") + "/vlcsa.sock";
  SocketServer::Options options;
  options.workers = 1;
  options.max_requests_per_conn = 1;  // every reply ends the conversation
  SocketServer server({ListenerSpec::unix_socket(socket_path)}, service, options);
  ASSERT_EQ(server.listen_or_error(), "");
  std::thread serving([&] { EXPECT_EQ(server.serve(), ""); });

  ServiceClient client;
  ASSERT_EQ(client.connect_or_error(socket_path, /*timeout_ms=*/2000), "");
  fleet::RetryPolicy policy;
  policy.attempts = 3;
  policy.base_ms = 1;
  policy.jitter_seed = 1;
  std::uint64_t retries = 0;
  std::string response;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(client.roundtrip_with_retry(R"({"request": "list"})", response, policy, &retries),
              "")
        << "request " << i;
    EXPECT_EQ(field(parse_line(response), "status"), "ok") << "request " << i;
  }
  // The first request rode the initial connection; the next two found it
  // closed by the per-connection cap and had to redial.
  EXPECT_GE(retries, 2u);

  ASSERT_EQ(client.roundtrip_with_retry(R"({"request": "shutdown"})", response, policy, &retries),
            "");
  serving.join();
}

TEST(ServiceClientRetry, IdleTimeoutClosesConversationAndRetryRecovers) {
  ExperimentService service({"", 64, 1});
  const std::string socket_path = temp_dir("idle") + "/vlcsa.sock";
  SocketServer::Options options;
  options.workers = 1;
  options.idle_timeout_ms = 50;
  SocketServer server({ListenerSpec::unix_socket(socket_path)}, service, options);
  ASSERT_EQ(server.listen_or_error(), "");
  std::thread serving([&] { EXPECT_EQ(server.serve(), ""); });

  ServiceClient client;
  ASSERT_EQ(client.connect_or_error(socket_path, /*timeout_ms=*/2000), "");
  std::string response;
  ASSERT_EQ(client.roundtrip(R"({"request": "list"})", response), "");
  EXPECT_EQ(field(parse_line(response), "status"), "ok");

  // Linger past the idle bound: the server reclaims the worker.  A plain
  // roundtrip would fail; the retrying one redials and succeeds.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  fleet::RetryPolicy policy;
  policy.attempts = 3;
  policy.base_ms = 1;
  policy.jitter_seed = 2;
  std::uint64_t retries = 0;
  ASSERT_EQ(client.roundtrip_with_retry(R"({"request": "list"})", response, policy, &retries), "");
  EXPECT_EQ(field(parse_line(response), "status"), "ok");
  EXPECT_GE(retries, 1u);

  ASSERT_EQ(client.roundtrip_with_retry(R"({"request": "shutdown"})", response, policy, &retries),
            "");
  serving.join();
}

TEST(ServiceClientRetry, DrainingReplyIsRetriedAgainstARecoveringServer) {
  // A drained service refuses runs; retries against the *same* endpoint keep
  // receiving the refusal, and after exhausting the budget the caller gets
  // the refusal line itself (transport stays ""), per the server.hpp
  // contract — loadgen counts it as an error status, not a protocol error.
  ExperimentService service({"", 64, 1});
  const std::string socket_path = temp_dir("refusal") + "/vlcsa.sock";
  SocketServer::Options options;
  options.workers = 2;
  options.drain_ms = 60000;  // drain converges via shutdown below, not deadline
  SocketServer server({ListenerSpec::unix_socket(socket_path)}, service, options);
  ASSERT_EQ(server.listen_or_error(), "");
  std::thread serving([&] { EXPECT_EQ(server.serve(), ""); });

  service.begin_drain();  // service-level drain only; listeners stay open
  ServiceClient client;
  ASSERT_EQ(client.connect_or_error(socket_path, /*timeout_ms=*/2000), "");
  fleet::RetryPolicy policy;
  policy.attempts = 2;
  policy.base_ms = 1;
  policy.jitter_seed = 3;
  std::uint64_t retries = 0;
  std::string response;
  ASSERT_EQ(client.roundtrip_with_retry(kErrorRateRun, response, policy, &retries), "");
  EXPECT_EQ(retries, 2u);  // both retries burned on the refusal
  const JsonValue parsed = parse_line(response);
  EXPECT_EQ(field(parsed, "status"), "error");
  EXPECT_EQ(field(parsed, "code"), "draining");

  server.begin_drain();
  serving.join();
}

}  // namespace
}  // namespace vlcsa::service
