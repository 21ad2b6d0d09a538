// Tests for the experiment service (service/service.hpp + server.hpp): the
// protocol router's strictness, the cache-hit contract the ISSUE acceptance
// criteria pin down — a repeated run request is served from cache without
// re-sampling, and the cached record is byte-identical to a fresh
// recomputation at any thread count — plus the stdio and Unix-socket
// transports end to end.

#include "service/service.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiments.hpp"
#include "harness/json.hpp"
#include "service/server.hpp"

namespace vlcsa::service {
namespace {

using harness::JsonParse;
using harness::JsonValue;
using harness::parse_json;

// Small but real registry experiments, so runs stay fast.
constexpr const char* kErrorRateRun =
    R"({"request": "run", "experiment": "fig7.1/n64-k6", "samples": 2000})";
constexpr const char* kChainProfileRun =
    R"({"request": "run", "experiment": "fig6.1/uniform-unsigned", "samples": 2000})";

/// A per-process socket path, so concurrent test runs on one host never bind
/// the same name; it stays far under the 108-byte sun_path limit.
std::string temp_socket(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("vlcsa_service_" + tag + "_" + std::to_string(::getpid()) + ".sock"))
      .string();
}

std::string temp_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("vlcsa_service_test_" + std::to_string(::getpid()) + "_" + tag);
  std::filesystem::remove_all(dir);
  return dir.string();
}

JsonValue parse_reply(const ExperimentService::Reply& reply) {
  JsonParse parse = parse_json(reply.line);
  EXPECT_TRUE(parse.ok()) << reply.line << " -> " << parse.error;
  EXPECT_EQ(parse.value.kind(), JsonValue::Kind::kObject);
  return parse.value;
}

std::string field(const JsonValue& response, const char* name) {
  const JsonValue* value = response.find(name);
  return value != nullptr && value->kind() == JsonValue::Kind::kString ? value->as_string()
                                                                       : std::string();
}

void expect_error_containing(ExperimentService& service, const std::string& line,
                             const std::string& needle) {
  const JsonValue response = parse_reply(service.handle_line(line));
  EXPECT_EQ(field(response, "status"), "error") << line;
  EXPECT_NE(field(response, "error").find(needle), std::string::npos)
      << line << " -> " << field(response, "error");
}

/// Extracts the embedded record's bytes by re-rendering is forbidden (it
/// must stay byte-identical), so runs compare records through the cache
/// file, whose content is exactly record + '\n'.
std::string read_single_cache_file(const std::string& dir) {
  std::string found;
  int count = 0;
  // Only .json record files: the directory also holds the fleet-mode
  // .vlcsa.lock advisory-lock file.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    ++count;
    found = entry.path().string();
  }
  EXPECT_EQ(count, 1) << "expected exactly one cache file in " << dir;
  std::ifstream in(found, std::ios::binary);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

TEST(ExperimentService, RunMissThenMemoryHitWithoutResampling) {
  ExperimentService service({temp_dir("hit"), 64, 1});

  const JsonValue first = parse_reply(service.handle_line(kErrorRateRun));
  EXPECT_EQ(field(first, "status"), "ok");
  EXPECT_EQ(field(first, "cache"), "miss");
  ASSERT_NE(first.find("record"), nullptr);
  EXPECT_EQ(field(*first.find("record"), "experiment"), "fig7.1/n64-k6");

  const JsonValue second = parse_reply(service.handle_line(kErrorRateRun));
  EXPECT_EQ(field(second, "cache"), "hit-memory");

  // "Without re-sampling" is observable through the counters: one miss (the
  // only compute), one memory hit, one store.
  const CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.memory_hits, 1u);
  EXPECT_EQ(stats.stores, 1u);

  // And the hit carried the identical record.
  std::uint64_t errors_first = 0, errors_second = 0;
  ASSERT_TRUE(first.find("record")->find("actual_errors")->to_u64(errors_first));
  ASSERT_TRUE(second.find("record")->find("actual_errors")->to_u64(errors_second));
  EXPECT_EQ(errors_first, errors_second);
}

TEST(ExperimentService, CachedRecordByteIdenticalAcrossThreadCounts) {
  // The acceptance criterion: the record cached by one service must be
  // byte-identical to a fresh recomputation at any --threads setting, for
  // both eval paths.
  const std::string dir_a = temp_dir("threads1");
  const std::string dir_b = temp_dir("threads4");
  {
    ExperimentService service({dir_a, 64, 1});
    EXPECT_EQ(field(parse_reply(service.handle_line(kErrorRateRun)), "cache"), "miss");
  }
  {
    ExperimentService service({dir_b, 64, 4});
    EXPECT_EQ(field(parse_reply(service.handle_line(kErrorRateRun)), "cache"), "miss");
  }
  EXPECT_EQ(read_single_cache_file(dir_a), read_single_cache_file(dir_b));
}

TEST(ExperimentService, ScalarAndBatchedPathsCacheSeparatelyButAgreeOnCounters) {
  ExperimentService service({"", 64, 1});
  const std::string batched =
      R"({"request": "run", "experiment": "fig7.1/n64-k6", "samples": 2000, "eval_path": "batched"})";
  const std::string scalar =
      R"({"request": "run", "experiment": "fig7.1/n64-k6", "samples": 2000, "eval_path": "scalar"})";
  const JsonValue first = parse_reply(service.handle_line(batched));
  const JsonValue second = parse_reply(service.handle_line(scalar));
  EXPECT_EQ(field(second, "cache"), "miss");  // distinct key: no false sharing
  // The batch-vs-scalar differential contract holds through the service too.
  std::uint64_t batched_errors = 0, scalar_errors = 0;
  ASSERT_TRUE(first.find("record")->find("actual_errors")->to_u64(batched_errors));
  ASSERT_TRUE(second.find("record")->find("actual_errors")->to_u64(scalar_errors));
  EXPECT_EQ(batched_errors, scalar_errors);
}

TEST(ExperimentService, DiskHitAfterRestart) {
  const std::string dir = temp_dir("restart");
  {
    ExperimentService service({dir, 64, 1});
    EXPECT_EQ(field(parse_reply(service.handle_line(kChainProfileRun)), "cache"), "miss");
  }
  ExperimentService service({dir, 64, 1});
  EXPECT_EQ(field(parse_reply(service.handle_line(kChainProfileRun)), "cache"), "hit-disk");
  EXPECT_EQ(field(parse_reply(service.handle_line(kChainProfileRun)), "cache"), "hit-memory");
}

TEST(ExperimentService, DefaultSamplesAndExplicitDefaultShareOneKey) {
  ExperimentService service({"", 64, 1});
  // fig6.2 crypto experiments default to 4 samples — cheap enough to run.
  const JsonValue first = parse_reply(
      service.handle_line(R"({"request": "run", "experiment": "fig6.2/rsa-like"})"));
  EXPECT_EQ(field(first, "status"), "ok");
  const JsonValue second = parse_reply(service.handle_line(
      R"({"request": "run", "experiment": "fig6.2/rsa-like", "samples": 4, "seed": 1})"));
  EXPECT_EQ(field(second, "cache"), "hit-memory");
}

TEST(ExperimentService, StrictRequestValidation) {
  ExperimentService service({"", 4, 1});
  expect_error_containing(service, "not json", "malformed request");
  expect_error_containing(service, "[1]", "must be a JSON object");
  expect_error_containing(service, R"({"experiment": "x"})", "request");
  expect_error_containing(service, R"({"request": "frobnicate"})", "unknown request");
  expect_error_containing(service, R"({"request": "run"})", "requires field 'experiment'");
  expect_error_containing(service, R"({"request": "run", "experiment": "no/such"})",
                          "unknown experiment");
  expect_error_containing(
      service, R"({"request": "run", "experiment": "fig7.1/n64-k6", "samples": -1})",
      "non-negative integer");
  expect_error_containing(
      service, R"({"request": "run", "experiment": "fig7.1/n64-k6", "samples": 0})",
      "must be positive");
  expect_error_containing(
      service, R"({"request": "run", "experiment": "fig7.1/n64-k6", "eval_path": "simd"})",
      "eval_path");
  expect_error_containing(
      service, R"({"request": "run", "experiment": "fig7.1/n64-k6", "widht": 64})",
      "unknown field 'widht'");
  expect_error_containing(
      service, R"({"request": "run", "experiment": "fig6.1/uniform-unsigned", "eval_path": "scalar"})",
      "chain-profile");
  expect_error_containing(service, R"({"request": "cache-stats", "experiment": "x"})",
                          "unknown field");
  expect_error_containing(service, R"({"request": "shutdown", "now": true})", "unknown field");
  // Validation failures never touch the cache.
  EXPECT_EQ(service.cache_stats().misses, 0u);
}

TEST(ExperimentService, ListAndDescribe) {
  ExperimentService service({"", 4, 1});
  const JsonValue list = parse_reply(service.handle_line(R"({"request": "list"})"));
  EXPECT_EQ(field(list, "status"), "ok");
  bool saw_table71 = false;
  for (const JsonValue& name : list.find("error_rate")->items()) {
    saw_table71 = saw_table71 || name.as_string() == "table7.1/n64";
  }
  EXPECT_TRUE(saw_table71);
  EXPECT_FALSE(list.find("chain_profile")->items().empty());

  const JsonValue filtered =
      parse_reply(service.handle_line(R"({"request": "list", "prefix": "fig6."})"));
  EXPECT_TRUE(filtered.find("error_rate")->items().empty());
  for (const JsonValue& name : filtered.find("chain_profile")->items()) {
    EXPECT_EQ(name.as_string().substr(0, 5), "fig6.");
  }

  const JsonValue describe = parse_reply(
      service.handle_line(R"({"request": "describe", "experiment": "table7.2/n64"})"));
  EXPECT_EQ(field(describe, "kind"), "error-rate");
  EXPECT_EQ(field(describe, "model"), "VLCSA 2");
  EXPECT_EQ(field(describe, "distribution"), "gaussian-twos-complement");
  std::uint64_t default_samples = 0;
  ASSERT_TRUE(describe.find("default_samples")->to_u64(default_samples));
  EXPECT_EQ(default_samples, 200000u);

  const JsonValue crypto = parse_reply(
      service.handle_line(R"({"request": "describe", "experiment": "fig6.2/rsa-like"})"));
  EXPECT_EQ(field(crypto, "kind"), "chain-profile");
  EXPECT_EQ(field(crypto, "workload"), "crypto");
}

TEST(ExperimentService, DescribeLeadsWithTheRecordsIdentityFields) {
  // describe and a run record render one identity block: for every entry,
  // the describe reply's fields from "experiment" up to "default_samples"
  // are byte-for-byte the fields a run record leads with.
  ExperimentService service({"", 0, 1});
  std::vector<std::string> names;
  for (const auto& experiment : harness::error_rate_experiments()) {
    names.push_back(experiment.name);
  }
  for (const auto& experiment : harness::chain_profile_experiments()) {
    names.push_back(experiment.name);
  }
  EXPECT_EQ(names.size(), 52u + 7u);
  for (const std::string& name : names) {
    const std::string describe =
        service.handle_line(R"({"request": "describe", "experiment": ")" + name + "\"}").line;
    const std::string run =
        service.handle_line(R"({"request": "run", "experiment": ")" + name +
                            R"(", "samples": 1})")
            .line;
    const std::size_t describe_begin = describe.find("\"experiment\": ");
    const std::size_t describe_end = describe.find(", \"default_samples\": ");
    const std::size_t record_begin = run.find("\"record\": {\"experiment\": ");
    ASSERT_NE(describe_begin, std::string::npos) << describe;
    ASSERT_NE(describe_end, std::string::npos) << describe;
    ASSERT_NE(record_begin, std::string::npos) << run;
    const std::size_t identity_begin = record_begin + std::string("\"record\": {").size();
    const std::size_t identity_end = run.find(", \"samples\": ", identity_begin);
    ASSERT_NE(identity_end, std::string::npos) << run;
    EXPECT_EQ(describe.substr(describe_begin, describe_end - describe_begin),
              run.substr(identity_begin, identity_end - identity_begin))
        << name;
  }
}

TEST(ExperimentService, ShutdownReply) {
  ExperimentService service({"", 4, 1});
  const ExperimentService::Reply reply = service.handle_line(R"({"request": "shutdown"})");
  EXPECT_TRUE(reply.shutdown);
  EXPECT_EQ(field(parse_reply(reply), "status"), "ok");
  // Errors and normal requests never set the flag.
  EXPECT_FALSE(service.handle_line(R"({"request": "list"})").shutdown);
  EXPECT_FALSE(service.handle_line("garbage").shutdown);
}

TEST(ServeStdio, ConversationEndsOnShutdown) {
  ExperimentService service({"", 4, 1});
  std::istringstream in(
      "{\"request\": \"list\"}\n"
      "\n"  // blank lines tolerated
      "{\"request\": \"cache-stats\"}\n"
      "{\"request\": \"shutdown\"}\n"
      "{\"request\": \"list\"}\n");  // after shutdown: unread
  std::ostringstream out;
  EXPECT_EQ(serve_stdio(in, out, service), 3u);
  // Three response lines, each valid JSON.
  std::istringstream lines(out.str());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(parse_json(line).ok()) << line;
    ++count;
  }
  EXPECT_EQ(count, 3);
}

TEST(ExperimentService, ConcurrentIdenticalColdRequestsComputeOnce) {
  // Single-flight: N threads racing on the same cold key must trigger
  // exactly one computation (one store) — the rest are memory hits or
  // coalesced waiters, never independent re-samplings.
  ExperimentService service({"", 16, 1});
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<std::string> caches(kThreads);
  std::vector<std::uint64_t> errors(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &caches, &errors, t] {
      const JsonValue response = parse_reply(service.handle_line(kErrorRateRun));
      caches[static_cast<std::size_t>(t)] = field(response, "cache");
      (void)response.find("record")->find("actual_errors")->to_u64(
          errors[static_cast<std::size_t>(t)]);
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(service.cache_stats().stores, 1u);  // exactly one computation
  int miss_count = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(caches[t] == "miss" || caches[t] == "coalesced" || caches[t] == "hit-memory")
        << caches[t];
    miss_count += caches[t] == "miss" ? 1 : 0;
    EXPECT_EQ(errors[t], errors[0]);  // everyone saw the same record
  }
  EXPECT_EQ(miss_count, 1);  // exactly the leader of the cold generation
}

TEST(SocketServer, ShutdownCompletesWithAnotherConnectionOpen) {
  // Regression: a worker blocked in recv() on an idle connection must not
  // keep serve() from returning after another client requests shutdown.
  const std::string socket_path = temp_socket("shutdown_test");
  ExperimentService service({"", 4, 1});
  SocketServer server(socket_path, service, /*workers=*/2);
  ASSERT_EQ(server.listen_or_error(), "");
  std::thread serving([&server] { EXPECT_EQ(server.serve(), ""); });

  ServiceClient idle;  // connects, sends nothing, stays open
  ASSERT_EQ(idle.connect_or_error(socket_path, /*timeout_ms=*/2000), "");
  std::string response;
  ASSERT_EQ(idle.roundtrip(R"({"request": "list"})", response), "");  // worker now owns it

  ServiceClient requester;
  ASSERT_EQ(requester.connect_or_error(socket_path, /*timeout_ms=*/2000), "");
  ASSERT_EQ(requester.roundtrip(R"({"request": "shutdown"})", response), "");
  EXPECT_EQ(field(parse_json(response).value, "status"), "ok");

  serving.join();  // must return despite the idle connection (hung pre-fix)
}

TEST(SocketServer, EndToEndOverUnixSocket) {
  const std::string socket_path = temp_socket("test");
  ExperimentService service({"", 16, 1});
  SocketServer server(socket_path, service, /*workers=*/2);
  ASSERT_EQ(server.listen_or_error(), "");
  std::thread serving([&server] { EXPECT_EQ(server.serve(), ""); });

  {
    ServiceClient client;
    ASSERT_EQ(client.connect_or_error(socket_path, /*timeout_ms=*/2000), "");
    std::string response;
    // Several requests over one connection.
    ASSERT_EQ(client.roundtrip(kErrorRateRun, response), "");
    JsonParse first = parse_json(response);
    ASSERT_TRUE(first.ok()) << response;
    EXPECT_EQ(field(first.value, "cache"), "miss");
    ASSERT_EQ(client.roundtrip(kErrorRateRun, response), "");
    JsonParse second = parse_json(response);
    ASSERT_TRUE(second.ok()) << response;
    EXPECT_EQ(field(second.value, "cache"), "hit-memory");
  }
  {
    // A second connection sees the same warm cache.
    ServiceClient client;
    ASSERT_EQ(client.connect_or_error(socket_path, /*timeout_ms=*/2000), "");
    std::string response;
    ASSERT_EQ(client.roundtrip(kErrorRateRun, response), "");
    EXPECT_EQ(field(parse_json(response).value, "cache"), "hit-memory");
    ASSERT_EQ(client.roundtrip(R"({"request": "shutdown"})", response), "");
    EXPECT_EQ(field(parse_json(response).value, "status"), "ok");
  }
  serving.join();
}

std::vector<std::string> read_cache_files_sorted(const std::string& dir) {
  std::vector<std::string> contents;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;  // skip .vlcsa.lock
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream content;
    content << in.rdbuf();
    contents.push_back(content.str());
  }
  std::sort(contents.begin(), contents.end());
  return contents;
}

TEST(ExperimentService, RunBatchEmptyArrayIsOkWithZeroCount) {
  ExperimentService service({"", 4, 1});
  const JsonValue response =
      parse_reply(service.handle_line(R"({"request": "run-batch", "runs": []})"));
  EXPECT_EQ(field(response, "status"), "ok");
  std::uint64_t count = 99;
  ASSERT_TRUE(response.find("count")->to_u64(count));
  EXPECT_EQ(count, 0u);
  EXPECT_TRUE(response.find("results")->items().empty());
}

TEST(ExperimentService, RunBatchContinuesPastABadElement) {
  ExperimentService service({"", 16, 1});
  const std::string batch =
      R"({"request": "run-batch", "runs": [)"
      R"({"experiment": "fig7.1/n64-k6", "samples": 2000}, )"
      R"({"experiment": "no/such"}, )"
      R"({"experiment": "fig7.1/n64-k6", "samples": 2000, "widht": 64}, )"
      R"({"experiment": "fig6.1/uniform-unsigned", "samples": 2000}]})";
  const JsonValue response = parse_reply(service.handle_line(batch));
  EXPECT_EQ(field(response, "status"), "ok");  // the batch itself succeeded
  std::uint64_t count = 0, ok = 0, errors = 0;
  ASSERT_TRUE(response.find("count")->to_u64(count));
  ASSERT_TRUE(response.find("ok")->to_u64(ok));
  ASSERT_TRUE(response.find("errors")->to_u64(errors));
  EXPECT_EQ(count, 4u);
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(errors, 2u);

  const auto& results = response.find("results")->items();
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(field(results[0], "status"), "ok");
  EXPECT_EQ(field(results[1], "status"), "error");
  EXPECT_EQ(field(results[1], "code"), "unknown-experiment");
  EXPECT_EQ(field(results[2], "status"), "error");
  EXPECT_NE(field(results[2], "error").find("unknown field 'widht'"), std::string::npos);
  EXPECT_EQ(field(results[3], "status"), "ok");
  // The two good elements each computed and stored.
  EXPECT_EQ(service.cache_stats().stores, 2u);
}

TEST(ExperimentService, RunBatchRecordsByteIdenticalToSingleRuns) {
  // A batch's cache records must be exactly the records the same specs
  // produce as individual run requests — the loadgen byte-identity check in
  // CI rests on this.
  const std::string dir_batch = temp_dir("batch");
  const std::string dir_single = temp_dir("single");
  const char* spec_a = R"({"experiment": "fig7.1/n64-k6", "samples": 2000})";
  const char* spec_b = R"({"experiment": "fig6.1/uniform-unsigned", "samples": 2000})";
  {
    ExperimentService service({dir_batch, 16, 1});
    const std::string batch = std::string(R"({"request": "run-batch", "runs": [)") + spec_a +
                              ", " + spec_b + "]}";
    const JsonValue response = parse_reply(service.handle_line(batch));
    std::uint64_t ok = 0;
    ASSERT_TRUE(response.find("ok")->to_u64(ok));
    ASSERT_EQ(ok, 2u);
  }
  {
    ExperimentService service({dir_single, 16, 1});
    for (const char* spec : {spec_a, spec_b}) {
      std::string line = spec;
      line.insert(1, R"("request": "run", )");
      EXPECT_EQ(field(parse_reply(service.handle_line(line)), "status"), "ok");
    }
  }
  const auto batch_files = read_cache_files_sorted(dir_batch);
  const auto single_files = read_cache_files_sorted(dir_single);
  ASSERT_EQ(batch_files.size(), 2u);
  EXPECT_EQ(batch_files, single_files);
}

TEST(ExperimentService, RunBatchAllHitServesFromCacheWithoutRecompute) {
  ExperimentService service({"", 16, 1});
  const std::string batch =
      R"({"request": "run-batch", "runs": [)"
      R"({"experiment": "fig7.1/n64-k6", "samples": 2000}, )"
      R"({"experiment": "fig6.1/uniform-unsigned", "samples": 2000}]})";
  (void)parse_reply(service.handle_line(batch));
  EXPECT_EQ(service.cache_stats().stores, 2u);
  const JsonValue again = parse_reply(service.handle_line(batch));
  EXPECT_EQ(service.cache_stats().stores, 2u);  // nothing recomputed
  for (const JsonValue& result : again.find("results")->items()) {
    EXPECT_EQ(field(result, "cache"), "hit-memory");
  }
}

TEST(ExperimentService, RunBatchStrictTopLevelValidation) {
  ExperimentService service({"", 4, 1});
  expect_error_containing(service, R"({"request": "run-batch"})", "array field 'runs'");
  expect_error_containing(service, R"({"request": "run-batch", "runs": 3})",
                          "array field 'runs'");
  expect_error_containing(service, R"({"request": "run-batch", "runs": [], "spins": 1})",
                          "unknown field 'spins'");
  expect_error_containing(
      service, R"({"request": "run-batch", "runs": [], "timeout_ms": 0})", "must be positive");
  // A non-object element errors in place, not at the top level.
  const JsonValue response = parse_reply(
      service.handle_line(R"({"request": "run-batch", "runs": [17]})"));
  EXPECT_EQ(field(response, "status"), "ok");
  EXPECT_EQ(field(response.find("results")->items()[0], "status"), "error");
}

TEST(ExperimentService, TimeoutCancelsRunWithoutWritingACacheRecord) {
  // A run big enough to take hundreds of milliseconds single-threaded, with
  // a 50 ms deadline: the watchdog flips the token, the engine aborts at a
  // shard boundary, and the reply is a "timeout"-coded error.  The key
  // contract: a cancelled run never writes a (partial) cache record.
  const std::string dir = temp_dir("timeout");
  ExperimentService service({dir, 16, 1});
  const JsonValue response = parse_reply(service.handle_line(
      R"({"request": "run", "experiment": "fig7.1/n64-k6", "samples": 50000000, "timeout_ms": 50})"));
  EXPECT_EQ(field(response, "status"), "error");
  EXPECT_EQ(field(response, "code"), "timeout");
  EXPECT_NE(field(response, "error").find("timeout"), std::string::npos);

  EXPECT_EQ(service.cache_stats().stores, 0u);
  // No record file, even partial (the dir itself holds the fleet lock file).
  int record_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json" || entry.path().extension() == ".tmp") {
      ++record_files;
    }
  }
  EXPECT_EQ(record_files, 0);
  EXPECT_EQ(service.metrics().snapshot().timeouts, 1u);

  // The same key still computes fine afterwards with a sane budget.
  const JsonValue retry = parse_reply(service.handle_line(
      R"({"request": "run", "experiment": "fig7.1/n64-k6", "samples": 2000})"));
  EXPECT_EQ(field(retry, "status"), "ok");
  std::filesystem::remove_all(dir);
}

TEST(ExperimentService, BatchSharesOneDeadlineAcrossElements) {
  // Two heavy elements under one 30 ms batch deadline: the first is
  // cancelled mid-run, the second observes the already-fired token before
  // starting.  Both answer timeout-coded element errors; nothing is cached.
  ExperimentService service({"", 16, 1});
  const std::string batch =
      R"({"request": "run-batch", "timeout_ms": 30, "runs": [)"
      R"({"experiment": "fig7.1/n64-k6", "samples": 50000000}, )"
      R"({"experiment": "fig7.1/n64-k6", "samples": 50000000, "seed": 2}]})";
  const JsonValue response = parse_reply(service.handle_line(batch));
  EXPECT_EQ(field(response, "status"), "ok");
  std::uint64_t errors = 0;
  ASSERT_TRUE(response.find("errors")->to_u64(errors));
  EXPECT_EQ(errors, 2u);
  for (const JsonValue& result : response.find("results")->items()) {
    EXPECT_EQ(field(result, "code"), "timeout");
  }
  EXPECT_EQ(service.cache_stats().stores, 0u);
}

TEST(ExperimentService, ExplicitZeroTimeoutIsRejected) {
  ExperimentService service({"", 4, 1});
  expect_error_containing(
      service,
      R"({"request": "run", "experiment": "fig7.1/n64-k6", "timeout_ms": 0})",
      "must be positive");
}

TEST(ExperimentService, OversizedTimeoutIsRejected) {
  // timeout_ms above 24 h would overflow the milliseconds-as-int deadline
  // arithmetic; the parser must reject it, not silently disable the deadline.
  ExperimentService service({"", 4, 1});
  expect_error_containing(
      service,
      R"({"request": "run", "experiment": "fig7.1/n64-k6", "timeout_ms": 86400001})",
      "at most 86400000");
  expect_error_containing(
      service, R"({"request": "run-batch", "runs": [], "timeout_ms": 99999999999})",
      "at most 86400000");
}

TEST(ExperimentService, DrainedBatchElementsCountAsTimeouts) {
  // Elements answered by the already-expired fast path carry code "timeout"
  // and must be counted in the timeouts metric like any other timeout reply.
  ExperimentService service({"", 16, 1});
  const std::string batch =
      R"({"request": "run-batch", "timeout_ms": 30, "runs": [)"
      R"({"experiment": "fig7.1/n64-k6", "samples": 50000000}, )"
      R"({"experiment": "fig7.1/n64-k6", "samples": 50000000, "seed": 2}]})";
  const JsonValue response = parse_reply(service.handle_line(batch));
  std::uint64_t errors = 0;
  ASSERT_TRUE(response.find("errors")->to_u64(errors));
  ASSERT_EQ(errors, 2u);  // one cancelled mid-run, one drained pre-start
  EXPECT_EQ(service.metrics().snapshot().timeouts, 2u);
}

TEST(ExperimentService, CoalescedFollowerEnforcesItsOwnDeadline) {
  // A follower coalesced onto a leader with no deadline must still honor its
  // own timeout_ms: it answers "timeout" while the leader keeps computing
  // and completes (and caches) normally.
  ExperimentService service({"", 16, 1});
  std::thread leader([&service] {
    const JsonValue response = parse_reply(service.handle_line(
        R"({"request": "run", "experiment": "fig7.1/n64-k6", "samples": 100000000})"));
    EXPECT_EQ(field(response, "status"), "ok");
  });
  // Wait for the leader to be in flight, then a beat more so it holds the
  // single-flight latch before the follower arrives.
  while (service.metrics().snapshot().in_flight == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const JsonValue follower = parse_reply(service.handle_line(
      R"({"request": "run", "experiment": "fig7.1/n64-k6", "samples": 100000000, "timeout_ms": 50})"));
  EXPECT_EQ(field(follower, "status"), "error");
  EXPECT_EQ(field(follower, "code"), "timeout");
  leader.join();
  EXPECT_EQ(service.cache_stats().stores, 1u);  // the leader was not cancelled
}

TEST(ExperimentService, ErrorRepliesCarryMachineReadableCodes) {
  ExperimentService service({"", 4, 1});
  const auto code_of = [&](const std::string& line) {
    return field(parse_reply(service.handle_line(line)), "code");
  };
  EXPECT_EQ(code_of("not json"), "bad-request");
  EXPECT_EQ(code_of(R"({"request": "frobnicate"})"), "unknown-request");
  EXPECT_EQ(code_of(R"({"request": "run", "experiment": "no/such"})"), "unknown-experiment");
  EXPECT_EQ(code_of(R"({"request": "run"})"), "bad-request");
}

TEST(SocketServer, EndToEndOverTcp) {
  // The same protocol over the TCP transport: ephemeral port, two requests
  // on one connection, cache warm across transports would also hold (shared
  // service) — here we just prove the listener abstraction serves TCP.
  ExperimentService service({"", 16, 1});
  SocketServer server({ListenerSpec::tcp("127.0.0.1", 0)}, service);
  ASSERT_EQ(server.listen_or_error(), "");
  const int port = server.tcp_port();
  ASSERT_GT(port, 0);
  std::thread serving([&server] { EXPECT_EQ(server.serve(), ""); });

  ServiceClient client;
  ASSERT_EQ(client.connect_tcp_or_error("127.0.0.1", port, /*timeout_ms=*/2000), "");
  std::string response;
  ASSERT_EQ(client.roundtrip(kErrorRateRun, response), "");
  EXPECT_EQ(field(parse_json(response).value, "cache"), "miss");
  ASSERT_EQ(client.roundtrip(kErrorRateRun, response), "");
  EXPECT_EQ(field(parse_json(response).value, "cache"), "hit-memory");
  ASSERT_EQ(client.roundtrip(R"({"request": "shutdown"})", response), "");
  serving.join();
}

TEST(SocketServer, UnixAndTcpListenersShareOneCache) {
  const std::string socket_path = temp_socket("dual_test");
  ExperimentService service({"", 16, 1});
  SocketServer server({ListenerSpec::unix_socket(socket_path), ListenerSpec::tcp("127.0.0.1", 0)},
                      service);
  ASSERT_EQ(server.listen_or_error(), "");
  std::thread serving([&server] { EXPECT_EQ(server.serve(), ""); });

  std::string response;
  {
    ServiceClient over_unix;
    ASSERT_EQ(over_unix.connect_or_error(socket_path, /*timeout_ms=*/2000), "");
    ASSERT_EQ(over_unix.roundtrip(kErrorRateRun, response), "");
    EXPECT_EQ(field(parse_json(response).value, "cache"), "miss");
  }
  {
    ServiceClient over_tcp;
    ASSERT_EQ(over_tcp.connect_tcp_or_error("127.0.0.1", server.tcp_port(), 2000), "");
    ASSERT_EQ(over_tcp.roundtrip(kErrorRateRun, response), "");
    EXPECT_EQ(field(parse_json(response).value, "cache"), "hit-memory");  // warmed over Unix
    ASSERT_EQ(over_tcp.roundtrip(R"({"request": "shutdown"})", response), "");
  }
  serving.join();
}

TEST(SocketServer, RejectsConnectionsPastTheBacklogWithOverloadedError) {
  // workers=1 and max_pending=1: one connection conversing, one queued; the
  // next connection must be answered with one "overloaded" line and closed,
  // not queued unboundedly.
  const std::string socket_path = temp_socket("backlog_test");
  ExperimentService service({"", 4, 1});
  SocketServer::Options options;
  options.workers = 1;
  options.max_pending = 1;
  SocketServer server({ListenerSpec::unix_socket(socket_path)}, service, options);
  ASSERT_EQ(server.listen_or_error(), "");
  std::thread serving([&server] { EXPECT_EQ(server.serve(), ""); });

  ServiceClient busy;  // claims the only worker
  ASSERT_EQ(busy.connect_or_error(socket_path, /*timeout_ms=*/2000), "");
  std::string response;
  ASSERT_EQ(busy.roundtrip(R"({"request": "list"})", response), "");

  ServiceClient queued;  // fills the pending queue
  ASSERT_EQ(queued.connect_or_error(socket_path, /*timeout_ms=*/2000), "");
  // Wait until the accept loop has actually queued it (the connect returns
  // before the server accepts).
  for (int i = 0; i < 500 && server.pending_connections() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(server.pending_connections(), 1u);

  ServiceClient rejected;
  ASSERT_EQ(rejected.connect_or_error(socket_path, /*timeout_ms=*/2000), "");
  // The server speaks first on a rejected connection: one overloaded line,
  // then close — nothing to send.
  ASSERT_EQ(rejected.read_response(response), "");
  EXPECT_EQ(field(parse_json(response).value, "code"), "overloaded");
  EXPECT_EQ(service.metrics().snapshot().rejected_connections, 1u);

  ASSERT_EQ(busy.roundtrip(R"({"request": "shutdown"})", response), "");
  serving.join();
}

TEST(SocketServer, OversizedUnterminatedLineGetsOneErrorLineThenEof) {
  // A peer streaming bytes with no newline must not grow a worker's buffer
  // without bound: past the cap it gets one bad-request line and EOF, and
  // the (only) worker moves on to the next connection.
  const std::string socket_path = temp_socket("longline_test");
  ExperimentService service({"", 4, 1});
  SocketServer server(socket_path, service, /*workers=*/1);
  ASSERT_EQ(server.listen_or_error(), "");
  std::thread serving([&server] { EXPECT_EQ(server.serve(), ""); });

  // Raw client: ServiceClient always terminates what it sends.  Failures
  // below are EXPECTs so the server is still shut down and joined.
  std::string received;
  ssize_t last = -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", socket_path.c_str());
  timeval timeout{5, 0};  // a server that keeps buffering fails the test, not hangs it
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)) == 0 &&
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout)) == 0) {
    const std::string payload(SocketServer::kMaxRequestLineBytes + 1, 'x');
    std::size_t sent = 0;
    while (sent < payload.size()) {
      const ssize_t n = ::send(fd, payload.data() + sent, payload.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    EXPECT_EQ(sent, payload.size());
    char chunk[4096];
    while ((last = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
      received.append(chunk, static_cast<std::size_t>(last));
    }
  }
  EXPECT_EQ(last, 0) << "expected EOF: " << std::strerror(errno);
  ::close(fd);
  EXPECT_EQ(received.find('\n'), received.size() - 1) << received;  // exactly one line
  const JsonParse reply = parse_json(received.substr(0, received.find('\n')));
  EXPECT_EQ(field(reply.value, "status"), "error") << received;
  EXPECT_EQ(field(reply.value, "code"), "bad-request") << received;

  ServiceClient next;  // the worker is free again
  ASSERT_EQ(next.connect_or_error(socket_path, /*timeout_ms=*/2000), "");
  std::string response;
  ASSERT_EQ(next.roundtrip(R"({"request": "list"})", response), "");
  EXPECT_EQ(field(parse_json(response).value, "status"), "ok");
  ASSERT_EQ(next.roundtrip(R"({"request": "shutdown"})", response), "");
  serving.join();
}

TEST(ServiceClient, ReadTimeoutFailsInsteadOfHangingOnASilentServer) {
  // A listener that accepts but never answers: the armed I/O deadline must
  // turn the roundtrip into a "timed out" error, not a hang.
  const std::string socket_path = temp_socket("silent_test");
  ::unlink(socket_path.c_str());
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", socket_path.c_str());
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);

  ServiceClient client;
  ASSERT_EQ(client.connect_or_error(socket_path, /*timeout_ms=*/2000), "");
  ASSERT_EQ(client.set_io_timeout_ms(100), "");
  std::string response;
  const std::string error = client.roundtrip(R"({"request": "list"})", response);
  EXPECT_NE(error.find("timed out"), std::string::npos) << error;
  ::close(listen_fd);
  ::unlink(socket_path.c_str());
}

TEST(ExperimentService, CacheStatsBreaksHitsDownByTierWithRatios) {
  const std::string dir = temp_dir("tiers");
  const auto stats_of = [](ExperimentService& service) {
    return parse_reply(service.handle_line(R"({"request": "cache-stats"})"));
  };
  const auto u64_of = [](const JsonValue& response, const char* name) {
    std::uint64_t value = 0;
    const JsonValue* field = response.find(name);
    EXPECT_NE(field, nullptr) << name;
    if (field != nullptr) {
      EXPECT_TRUE(field->to_u64(value)) << name;
    }
    return value;
  };
  {
    ExperimentService service({dir, 64, 1});
    EXPECT_TRUE(service.handle_line(kErrorRateRun).ok);  // miss
    EXPECT_TRUE(service.handle_line(kErrorRateRun).ok);  // memory hit
    const JsonValue response = stats_of(service);
    EXPECT_EQ(u64_of(response, "memory_hits"), 1u);
    EXPECT_EQ(u64_of(response, "disk_hits"), 0u);
    EXPECT_EQ(u64_of(response, "coalesced_hits"), 0u);
    EXPECT_EQ(u64_of(response, "misses"), 1u);
    // 2 lookups: 1 memory hit, 1 miss.
    EXPECT_DOUBLE_EQ(response.find("memory_hit_ratio")->as_double(), 0.5);
    EXPECT_DOUBLE_EQ(response.find("disk_hit_ratio")->as_double(), 0.0);
    EXPECT_DOUBLE_EQ(response.find("coalesced_hit_ratio")->as_double(), 0.0);
    EXPECT_DOUBLE_EQ(response.find("hit_ratio")->as_double(), 0.5);
  }
  {
    // A restart empties the memory tier: the same run answers from disk.
    ExperimentService service({dir, 64, 1});
    EXPECT_TRUE(service.handle_line(kErrorRateRun).ok);
    const JsonValue response = stats_of(service);
    EXPECT_EQ(u64_of(response, "disk_hits"), 1u);
    EXPECT_DOUBLE_EQ(response.find("disk_hit_ratio")->as_double(), 1.0);
    EXPECT_DOUBLE_EQ(response.find("hit_ratio")->as_double(), 1.0);
  }
  {
    // No traffic at all: every ratio is defined (0.0), never NaN.
    ExperimentService service({"", 4, 1});
    const JsonValue response = stats_of(service);
    EXPECT_DOUBLE_EQ(response.find("hit_ratio")->as_double(), 0.0);
  }
  std::filesystem::remove_all(dir);
}

TEST(ExperimentService, CacheStatsReportsDiskTierSizeAndCap) {
  const std::string dir = temp_dir("cap");
  ServiceConfig config;
  config.cache_dir = dir;
  config.memory_entries = 4;
  config.threads = 1;
  config.cache_max_bytes = 1 << 20;
  ExperimentService service(config);
  (void)parse_reply(service.handle_line(kErrorRateRun));

  const JsonValue response =
      parse_reply(service.handle_line(R"({"request": "cache-stats"})"));
  EXPECT_EQ(field(response, "status"), "ok");
  std::uint64_t value = 0;
  ASSERT_NE(response.find("disk_bytes"), nullptr);
  ASSERT_TRUE(response.find("disk_bytes")->to_u64(value));
  EXPECT_GT(value, 0u);  // the run's record is on disk and counted
  ASSERT_NE(response.find("disk_max_bytes"), nullptr);
  ASSERT_TRUE(response.find("disk_max_bytes")->to_u64(value));
  EXPECT_EQ(value, static_cast<std::uint64_t>(1 << 20));
  ASSERT_NE(response.find("disk_evictions"), nullptr);
  ASSERT_TRUE(response.find("disk_evictions")->to_u64(value));
  EXPECT_EQ(value, 0u);
  std::filesystem::remove_all(dir);
}

TEST(ExperimentService, OriginIsValidatedAndCountsSweepRunTraffic) {
  ExperimentService service({"", 16, 1});
  expect_error_containing(
      service, R"({"request": "run", "experiment": "fig7.1/n64-k6", "origin": 7})",
      "field 'origin' must be a string");
  expect_error_containing(
      service, R"({"request": "run", "experiment": "fig7.1/n64-k6", "origin": ""})",
      "field 'origin' must be non-empty");

  // Only run traffic counts toward the sweep counters: a metrics request may
  // declare the origin (it lands in the access log) without incrementing them.
  std::uint64_t value = 99;
  JsonValue response =
      parse_reply(service.handle_line(R"({"request": "metrics", "origin": "sweep"})"));
  ASSERT_TRUE(response.find("sweep_requests")->to_u64(value));
  EXPECT_EQ(value, 0u);

  const std::string run =
      R"({"request": "run", "experiment": "fig7.1/n64-k6", "samples": 2000, "origin": "sweep"})";
  EXPECT_EQ(field(parse_reply(service.handle_line(run)), "status"), "ok");
  const std::string batch =
      R"({"request": "run-batch", "origin": "sweep", "runs": [)"
      R"({"experiment": "fig7.1/n64-k6", "samples": 2000}, )"
      R"({"experiment": "fig6.1/uniform-unsigned", "samples": 2000}]})";
  EXPECT_EQ(field(parse_reply(service.handle_line(batch)), "status"), "ok");
  // Runs with a different (or no) origin stay out of the sweep counters.
  (void)parse_reply(service.handle_line(kChainProfileRun));

  response = parse_reply(service.handle_line(R"({"request": "metrics"})"));
  ASSERT_TRUE(response.find("sweep_requests")->to_u64(value));
  EXPECT_EQ(value, 2u);  // the origin-"sweep" run + run-batch
  ASSERT_TRUE(response.find("sweep_cells")->to_u64(value));
  EXPECT_EQ(value, 3u);  // 1 single-run cell + 2 batch elements
}

TEST(ExperimentService, TracedRunBatchAttachesProfilesOnlyToComputedElements) {
  ExperimentService service({"", 16, 1});
  const std::string batch =
      R"({"request": "run-batch", "trace": true, "runs": [)"
      R"({"experiment": "fig7.1/n64-k6", "samples": 2000}, )"
      R"({"experiment": "fig6.1/uniform-unsigned", "samples": 2000}]})";

  const JsonValue cold = parse_reply(service.handle_line(batch));
  ASSERT_EQ(cold.find("results")->items().size(), 2u);
  for (const JsonValue& result : cold.find("results")->items()) {
    EXPECT_EQ(field(result, "cache"), "miss");
    const JsonValue* profile = result.find("profile");
    ASSERT_NE(profile, nullptr) << field(result, "experiment");
    ASSERT_EQ(profile->kind(), JsonValue::Kind::kObject);
    std::uint64_t samples = 0;
    ASSERT_NE(profile->find("samples"), nullptr);
    ASSERT_TRUE(profile->find("samples")->to_u64(samples));
    EXPECT_EQ(samples, 2000u);  // the element's own engine run, not a total
  }

  // Cache hits never ran the engine, so they carry no profile even when
  // traced — a sweep's rollup only aggregates real compute.
  const JsonValue warm = parse_reply(service.handle_line(batch));
  for (const JsonValue& result : warm.find("results")->items()) {
    EXPECT_EQ(field(result, "cache"), "hit-memory");
    EXPECT_EQ(result.find("profile"), nullptr);
  }

  // Untraced batches never carry profiles, computed or not.
  ExperimentService fresh({"", 16, 1});
  const std::string untraced =
      R"({"request": "run-batch", "runs": [)"
      R"({"experiment": "fig7.1/n64-k6", "samples": 2000}]})";
  const JsonValue plain = parse_reply(fresh.handle_line(untraced));
  ASSERT_EQ(plain.find("results")->items().size(), 1u);
  EXPECT_EQ(plain.find("results")->items()[0].find("profile"), nullptr);
}

}  // namespace
}  // namespace vlcsa::service
