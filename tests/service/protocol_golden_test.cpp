// Golden protocol corpus: replays tests/service/data/protocol_golden.txt
// through ExperimentService::handle_line, one service for the whole file,
// and compares every reply byte for byte with the reply recorded there.
// Only wall-time and timing values are masked (mask_timing below):
// `wall_seconds`, the `metrics` latencies, uptime and qps, the span timings
// and the timing lines of the `metrics-prom` body.  The corpus covers every
// request type's ok reply, an unknown field, a wrong field type and a bad
// envelope field for each type, unknown requests, malformed JSON, run-batch
// element errors, and a drain followed by refused runs — so a change to any
// reply byte, error message, error code or check order fails here.
//
// File format: `> REQUEST` and `< REPLY` line pairs; `#` lines are comments.
// The replies were recorded at commit f2f8e85 by building this test in that
// tree (TREE = a scratch directory, run from the repo root):
//
//   git archive f2f8e85 | tar -x -C TREE
//   cp tests/service/protocol_golden_test.cpp TREE/tests/service/
//   mkdir -p TREE/tests/service/data
//   cp tests/service/data/protocol_golden.txt TREE/tests/service/data/
//   cmake -B TREE/build -S TREE -DVLCSA_BUILD_BENCH=OFF
//   cmake --build TREE/build --target service_protocol_golden_test
//   VLCSA_GOLDEN_OUT=golden.txt TREE/build/tests/service_protocol_golden_test
//   cp golden.txt tests/service/data/protocol_golden.txt
//
// With VLCSA_GOLDEN_OUT set the test records instead of comparing: it
// replays the file's `>` lines and writes the comments and `>`/`<` pairs to
// that path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "harness/json.hpp"
#include "harness/report.hpp"
#include "service/service.hpp"

namespace vlcsa::service {
namespace {

using harness::JsonValue;

std::filesystem::path corpus_path() {
  return std::filesystem::path(__FILE__).parent_path() / "data" / "protocol_golden.txt";
}

/// The `metrics-prom` body with the value of every timing line replaced by
/// `#`: uptime, qps and the buckets and sums of both latency histograms
/// (their `_count` lines are request counts and stay).
std::string mask_prom_body(const std::string& body) {
  static constexpr std::string_view kTimingPrefixes[] = {
      "vlcsa_uptime_seconds ", "vlcsa_qps_60s ",
      "vlcsa_request_latency_seconds_bucket", "vlcsa_request_latency_seconds_sum",
      "vlcsa_stage_latency_seconds_bucket", "vlcsa_stage_latency_seconds_sum"};
  std::string out;
  std::size_t begin = 0;
  while (begin < body.size()) {
    std::size_t end = body.find('\n', begin);
    if (end == std::string::npos) end = body.size();
    std::string line = body.substr(begin, end - begin);
    for (const std::string_view prefix : kTimingPrefixes) {
      if (line.rfind(prefix, 0) == 0) {
        line = line.substr(0, line.rfind(' ') + 1) + "#";
        break;
      }
    }
    out += line;
    if (end < body.size()) out += '\n';
    begin = end + 1;
  }
  return out;
}

/// `reply` with its wall-time and timing values replaced by "#".  Every other
/// byte is kept: the values are replaced in place, by their source ranges.
std::string mask_timing(const std::string& reply) {
  static constexpr std::string_view kTimingFields[] = {
      "wall_seconds",        "uptime_seconds",      "qps",
      "qps_60s",             "latency_p50_seconds", "latency_p95_seconds",
      "latency_p99_seconds", "latency_max_seconds"};
  const harness::JsonParse parse = harness::parse_json(reply);
  if (!parse.ok() || parse.value.kind() != JsonValue::Kind::kObject) return reply;

  struct Edit {
    std::size_t begin;
    std::size_t size;
    std::string text;
  };
  std::vector<Edit> edits;  // in document order
  const auto replace = [&](const JsonValue& value, std::string text) {
    const std::string_view source = value.source(reply);
    edits.push_back({static_cast<std::size_t>(source.data() - reply.data()), source.size(),
                     std::move(text)});
  };
  for (const auto& [key, value] : parse.value.members()) {
    if (std::find(std::begin(kTimingFields), std::end(kTimingFields), key) !=
        std::end(kTimingFields)) {
      replace(value, "\"#\"");
    } else if (key == "spans" && value.kind() == JsonValue::Kind::kArray) {
      for (const JsonValue& span : value.items()) {
        for (const char* timing : {"start_us", "dur_us"}) {
          if (const JsonValue* field = span.find(timing)) replace(*field, "\"#\"");
        }
      }
    } else if (key == "body" && value.kind() == JsonValue::Kind::kString) {
      replace(value, "\"" + harness::json_escape(mask_prom_body(value.as_string())) + "\"");
    }
  }
  std::string out = reply;
  for (auto edit = edits.rbegin(); edit != edits.rend(); ++edit) {
    out.replace(edit->begin, edit->size, edit->text);
  }
  return out;
}

TEST(ProtocolGolden, MaskKeepsEverythingButTimingValues) {
  EXPECT_EQ(mask_timing(R"({"status": "ok", "wall_seconds": 0.25, "cache": "miss"})"),
            R"({"status": "ok", "wall_seconds": "#", "cache": "miss"})");
  EXPECT_EQ(
      mask_timing(
          R"({"spans": [{"name": "request", "depth": 0, "start_us": 0, "dur_us": 12}]})"),
      R"({"spans": [{"name": "request", "depth": 0, "start_us": "#", "dur_us": "#"}]})");
  EXPECT_EQ(mask_timing(R"({"body": "vlcsa_qps_60s 3.5\nvlcsa_requests_total 4\n"})"),
            R"({"body": "vlcsa_qps_60s #\nvlcsa_requests_total 4\n"})");
  EXPECT_EQ(mask_timing("garbage"), "garbage");
}

TEST(ProtocolGolden, RepliesMatchTheRecordedCorpus) {
  std::ifstream in(corpus_path());
  ASSERT_TRUE(in.is_open()) << "cannot open " << corpus_path();
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);

  const char* record_path = std::getenv("VLCSA_GOLDEN_OUT");
  std::ofstream record;
  if (record_path != nullptr) {
    record.open(record_path);
    ASSERT_TRUE(record.is_open()) << "cannot write " << record_path;
  }

  // Memory tier only, so cache-stats' disk fields do not depend on a path.
  ExperimentService service({"", 16, 2});
  std::size_t compared = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.rfind("> ", 0) != 0) {
      if (record_path != nullptr && line.rfind("< ", 0) != 0) record << line << '\n';
      continue;
    }
    const std::string request = line.substr(2);
    const std::string reply = mask_timing(service.handle_line(request).line);
    if (record_path != nullptr) {
      record << "> " << request << '\n' << "< " << reply << '\n';
      continue;
    }
    ASSERT_LT(i + 1, lines.size()) << "request without a recorded reply: " << request;
    ASSERT_EQ(lines[i + 1].rfind("< ", 0), 0u) << "request without a recorded reply: " << request;
    EXPECT_EQ(reply, lines[i + 1].substr(2)) << "request: " << request;
    ++compared;
  }
  if (record_path == nullptr) {
    EXPECT_GE(compared, 100u) << "the corpus lost its requests";
  }
}

}  // namespace
}  // namespace vlcsa::service
