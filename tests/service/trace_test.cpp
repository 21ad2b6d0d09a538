// Tests for the request-tracing subsystem (service/trace.hpp) and its wiring
// through the service: span nesting/ordering/containment, the disabled
// collector as a no-op, JSONL log rotation, the "trace": true reply echo,
// the --trace-log and --access-log line shapes (every line must parse back
// through the repo's strict JSON parser), the --slow-ms flag, and the
// determinism boundary the ISSUE pins — a traced run's cached record is
// byte-identical to an untraced one.

#include "service/trace.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/json.hpp"
#include "service/service.hpp"

namespace vlcsa::service {
namespace {

using harness::JsonParse;
using harness::JsonValue;
using harness::parse_json;

std::string temp_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("vlcsa_trace_test_" + std::to_string(::getpid()) + "_" + tag);
  std::filesystem::remove_all(dir);
  return dir.string();
}

std::string temp_file(const std::string& tag) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("vlcsa_trace_test_" + std::to_string(::getpid()) + "_" + tag);
  std::filesystem::remove(path);
  std::filesystem::remove(path.string() + ".1");
  return path.string();
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string field(const JsonValue& object, const char* name) {
  const JsonValue* value = object.find(name);
  return value != nullptr && value->kind() == JsonValue::Kind::kString ? value->as_string()
                                                                       : std::string();
}

TEST(RequestTrace, DisabledCollectorIsANoOp) {
  RequestTrace trace;
  EXPECT_FALSE(trace.enabled());
  EXPECT_EQ(trace.open("parse"), 0u);
  trace.close(0);  // handle from a disabled open must be ignored
  {
    const RequestTrace::Scope scope(trace, "render");
  }
  EXPECT_TRUE(trace.spans().empty());
  EXPECT_EQ(trace.render_spans(), "[]");
}

TEST(RequestTrace, SpansNestWithDepthOrderingAndContainment) {
  RequestTrace trace;
  trace.enable();
  const std::size_t root = trace.open("request");
  {
    const RequestTrace::Scope parse(trace, "parse");
  }
  {
    const RequestTrace::Scope run(trace, "engine-run");
    const RequestTrace::Scope inner(trace, "render");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  trace.close(root);

  const std::vector<TraceSpan>& spans = trace.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "request");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[1].name, "parse");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[2].name, "engine-run");
  EXPECT_EQ(spans[2].depth, 1);
  EXPECT_EQ(spans[3].name, "render");
  EXPECT_EQ(spans[3].depth, 2);

  // Spans appear in open order; siblings do not overlap.
  EXPECT_LE(spans[1].start_us + spans[1].dur_us, spans[2].start_us);

  // Containment: both endpoints floor from one origin, so every child's
  // interval sits inside its parent's — the invariant the loadgen span-tree
  // validator leans on.
  for (std::size_t i = 1; i < spans.size(); ++i) {
    const TraceSpan& parent = spans[i].depth == 1 ? spans[0] : spans[i - 1];
    EXPECT_GE(spans[i].start_us, parent.start_us) << spans[i].name;
    EXPECT_LE(spans[i].start_us + spans[i].dur_us, parent.start_us + parent.dur_us)
        << spans[i].name;
  }
}

TEST(RequestTrace, RenderSpansParsesStrictly) {
  RequestTrace trace;
  trace.enable();
  const std::size_t root = trace.open("request");
  {
    const RequestTrace::Scope parse(trace, "parse");
  }
  trace.close(root);

  const JsonParse parsed = parse_json(trace.render_spans());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.value.kind(), JsonValue::Kind::kArray);
  ASSERT_EQ(parsed.value.items().size(), 2u);
  for (const JsonValue& span : parsed.value.items()) {
    EXPECT_EQ(span.kind(), JsonValue::Kind::kObject);
    EXPECT_NE(span.find("name"), nullptr);
    EXPECT_NE(span.find("depth"), nullptr);
    EXPECT_NE(span.find("start_us"), nullptr);
    EXPECT_NE(span.find("dur_us"), nullptr);
  }
}

TEST(RequestTrace, ParseSpansRoundTripsRenderSpans) {
  RequestTrace trace;
  trace.enable();
  const std::size_t root = trace.open("request");
  {
    const RequestTrace::Scope parse(trace, "parse");
  }
  {
    const RequestTrace::Scope run(trace, "engine-run");
    const RequestTrace::Scope inner(trace, "render");
  }
  trace.close(root);

  const JsonParse parsed = parse_json("{\"spans\": " + trace.render_spans() + "}");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  std::vector<TraceSpan> spans;
  ASSERT_EQ(parse_spans(parsed.value, spans), "");
  ASSERT_EQ(spans.size(), trace.spans().size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].name, trace.spans()[i].name);
    EXPECT_EQ(spans[i].depth, trace.spans()[i].depth);
    EXPECT_EQ(spans[i].start_us, trace.spans()[i].start_us);
    EXPECT_EQ(spans[i].dur_us, trace.spans()[i].dur_us);
  }
}

TEST(RequestTrace, ParseSpansRejectsMalformedSpanArrays) {
  // The error texts are what vlcsa_loadgen --trace-log reports per line.
  const std::vector<std::pair<const char*, const char*>> cases = {
      {R"({"trace_id": "t"})", "missing array field 'spans'"},
      {R"({"spans": {}})", "missing array field 'spans'"},
      {R"({"spans": [1]})", "span is not an object"},
      {R"({"spans": [{"depth": 0, "start_us": 0, "dur_us": 1}]})",
       "span without a string 'name'"},
      {R"({"spans": [{"name": 7, "depth": 0, "start_us": 0, "dur_us": 1}]})",
       "span without a string 'name'"},
      {R"({"spans": [{"name": "request", "depth": -1, "start_us": 0, "dur_us": 1}]})",
       "span 'request' without numeric depth/start_us/dur_us"},
      {R"({"spans": [{"name": "request", "depth": 1.0, "start_us": 0, "dur_us": 1}]})",
       "span 'request' without numeric depth/start_us/dur_us"},
      {R"({"spans": [{"name": "request", "depth": 4294967296, "start_us": 0, "dur_us": 1}]})",
       "span 'request' without numeric depth/start_us/dur_us"},
      {R"({"spans": [{"name": "request", "depth": 0, "start_us": "0", "dur_us": 1}]})",
       "span 'request' without numeric depth/start_us/dur_us"},
      {R"({"spans": [{"name": "request", "depth": 0, "start_us": 0}]})",
       "span 'request' without numeric depth/start_us/dur_us"},
  };
  for (const auto& [line, expected] : cases) {
    const JsonParse parsed = parse_json(line);
    ASSERT_TRUE(parsed.ok()) << line << " -> " << parsed.error;
    std::vector<TraceSpan> spans;
    EXPECT_EQ(parse_spans(parsed.value, spans), expected) << line;
  }
}

TEST(JsonlLog, WritesLinesAndRotatesAtTheCap) {
  const std::string path = temp_file("rotate.jsonl");
  JsonlLog log;
  ASSERT_EQ(log.open(path, 64), "");
  EXPECT_TRUE(log.enabled());

  const std::string line = R"({"n": 1, "pad": "xxxxxxxxxxxxxxxxxxxxxxxx"})";  // ~45 bytes
  log.write(line);   // fits
  log.write(line);   // would pass 64 -> rotate first
  log.write(line);   // would pass 64 again -> rotate again

  const std::vector<std::string> current = read_lines(path);
  const std::vector<std::string> previous = read_lines(path + ".1");
  ASSERT_EQ(current.size(), 1u);
  ASSERT_EQ(previous.size(), 1u);
  EXPECT_EQ(current[0], line);
  EXPECT_EQ(previous[0], line);
}

TEST(JsonlLog, WriteLandingExactlyOnTheCapDoesNotRotate) {
  const std::string path = temp_file("rotate_exact.jsonl");
  const std::string line = R"({"n": 1})";  // 9 bytes + newline
  // Cap sized so two writes land exactly on it: rotation triggers only when
  // a write would *pass* the cap, so the file is allowed to fill completely.
  JsonlLog log;
  ASSERT_EQ(log.open(path, 2 * (line.size() + 1)), "");
  log.write(line);
  log.write(line);  // lands exactly on max_bytes — must NOT rotate
  EXPECT_FALSE(std::filesystem::exists(path + ".1"));
  EXPECT_EQ(read_lines(path).size(), 2u);

  log.write(line);  // would pass the cap — now it rotates
  EXPECT_TRUE(std::filesystem::exists(path + ".1"));
  EXPECT_EQ(read_lines(path + ".1").size(), 2u);
  EXPECT_EQ(read_lines(path).size(), 1u);
}

TEST(JsonlLog, RotationReplacesAPreExistingDotOne) {
  const std::string path = temp_file("rotate_stale.jsonl");
  {
    // A leftover previous generation from an earlier daemon run.
    std::ofstream stale(path + ".1");
    stale << "{\"stale\": true}\n";
  }
  const std::string line = R"({"n": 1, "pad": "xxxxxxxxxxxxxxxxxxxxxxxx"})";
  JsonlLog log;
  ASSERT_EQ(log.open(path, 64), "");
  log.write(line);
  log.write(line);  // passes the cap — rotation must replace the stale .1

  const std::vector<std::string> previous = read_lines(path + ".1");
  ASSERT_EQ(previous.size(), 1u);
  EXPECT_EQ(previous[0], line);  // not the stale sentinel
  EXPECT_EQ(read_lines(path).size(), 1u);
}

TEST(JsonlLog, ConcurrentWritersNeverTearLines) {
  const std::string path = temp_file("rotate_concurrent.jsonl");
  JsonlLog log;
  ASSERT_EQ(log.open(path), "");  // unbounded: every line survives

  // Two writers with different line lengths interleave; line-level locking
  // must keep every write a whole line (a torn write would interleave the
  // two shapes mid-line and fail to parse).
  constexpr int kPerWriter = 500;
  const auto writer = [&log](int id) {
    for (int n = 0; n < kPerWriter; ++n) {
      log.write("{\"writer\": " + std::to_string(id) + ", \"n\": " + std::to_string(n) +
                (id == 0 ? ", \"pad\": \"xxxxxxxxxxxxxxxx\"}" : "}"));
    }
  };
  std::thread a(writer, 0);
  std::thread b(writer, 1);
  a.join();
  b.join();

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u * kPerWriter);
  std::array<std::vector<bool>, 2> seen;
  seen[0].assign(kPerWriter, false);
  seen[1].assign(kPerWriter, false);
  for (const std::string& line : lines) {
    const JsonParse parsed = parse_json(line);
    ASSERT_TRUE(parsed.ok()) << "torn line: " << line;
    const JsonValue* writer_id = parsed.value.find("writer");
    const JsonValue* n = parsed.value.find("n");
    ASSERT_NE(writer_id, nullptr);
    ASSERT_NE(n, nullptr);
    seen[static_cast<std::size_t>(writer_id->as_double())]
        [static_cast<std::size_t>(n->as_double())] = true;
  }
  for (const auto& writer_seen : seen) {
    for (const bool hit : writer_seen) EXPECT_TRUE(hit);
  }
}

TEST(JsonlLog, OpenFailureReportsThePath) {
  JsonlLog log;
  const std::string error = log.open("/nonexistent-dir/sub/trace.jsonl");
  EXPECT_NE(error.find("/nonexistent-dir"), std::string::npos) << error;
  EXPECT_FALSE(log.enabled());
}

TEST(TraceIdGenerator, IdsAreUniqueAndPrefixed) {
  TraceIdGenerator ids;
  const std::string a = ids.next();
  const std::string b = ids.next();
  EXPECT_NE(a, b);
  EXPECT_EQ(a.rfind("t-", 0), 0u) << a;
  // Same generator, same prefix; only the counter differs.
  EXPECT_EQ(a.substr(0, a.rfind('-')), b.substr(0, b.rfind('-')));
}

TEST(ExperimentService, TraceEchoCarriesIdAndSpans) {
  ServiceConfig config;
  config.threads = 1;
  ExperimentService service(config);
  const auto reply = service.handle_line(
      R"({"request": "run", "experiment": "fig7.1/n64-k6", "samples": 2000, "trace": true})");
  const JsonParse parsed = parse_json(reply.line);
  ASSERT_TRUE(parsed.ok()) << reply.line << " -> " << parsed.error;
  EXPECT_EQ(field(parsed.value, "status"), "ok");
  EXPECT_FALSE(field(parsed.value, "trace_id").empty());

  const JsonValue* spans = parsed.value.find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->kind(), JsonValue::Kind::kArray);
  std::vector<std::string> names;
  for (const JsonValue& span : spans->items()) names.push_back(field(span, "name"));
  // A cold run covers the whole staged path.
  const std::vector<std::string> expected = {"request",    "parse",        "cache-lookup",
                                             "engine-run", "record-write", "render"};
  EXPECT_EQ(names, expected);

  // "trace": false and an untraced request both stay echo-free.
  for (const char* line :
       {R"({"request": "metrics", "trace": false})", R"({"request": "metrics"})"}) {
    const JsonParse quiet = parse_json(service.handle_line(line).line);
    ASSERT_TRUE(quiet.ok());
    EXPECT_EQ(quiet.value.find("spans"), nullptr) << line;
  }
}

TEST(ExperimentService, SuppliedTraceIdIsEchoedVerbatim) {
  ExperimentService service({"", 64, 1});
  const auto reply = service.handle_line(
      R"({"request": "list", "trace": true, "trace_id": "corr-42"})");
  const JsonParse parsed = parse_json(reply.line);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(field(parsed.value, "trace_id"), "corr-42");
}

TEST(ExperimentService, TraceEnvelopeFieldsAreStrictlyValidated) {
  ExperimentService service({"", 64, 1});
  const auto expect_error = [&](const char* line, const char* needle) {
    const JsonParse parsed = parse_json(service.handle_line(line).line);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(field(parsed.value, "status"), "error") << line;
    EXPECT_NE(field(parsed.value, "error").find(needle), std::string::npos)
        << line << " -> " << field(parsed.value, "error");
  };
  expect_error(R"({"request": "metrics", "trace": "yes"})", "'trace' must be a boolean");
  expect_error(R"({"request": "metrics", "trace_id": 7})", "'trace_id' must be a string");
  expect_error(R"({"request": "metrics", "trace_id": ""})", "'trace_id' must be non-empty");
}

TEST(ExperimentService, TraceLogLinesParseStrictlyWithExpectedSpans) {
  const std::string trace_path = temp_file("tracelog.jsonl");
  ServiceConfig config;
  config.threads = 1;
  config.trace_log = trace_path;
  ExperimentService service(config);
  ASSERT_EQ(service.log_error(), "");

  const char* run = R"({"request": "run", "experiment": "fig7.1/n64-k6", "samples": 2000})";
  EXPECT_TRUE(service.handle_line(run).ok);  // miss
  EXPECT_TRUE(service.handle_line(run).ok);  // memory hit

  const std::vector<std::string> lines = read_lines(trace_path);
  ASSERT_EQ(lines.size(), 2u);

  const auto span_names = [](const JsonValue& entry) {
    std::vector<std::string> names;
    const JsonValue* spans = entry.find("spans");
    EXPECT_NE(spans, nullptr);
    if (spans != nullptr) {
      for (const JsonValue& span : spans->items()) {
        names.push_back(span.find("name")->as_string());
      }
    }
    return names;
  };

  const JsonParse miss = parse_json(lines[0]);
  ASSERT_TRUE(miss.ok()) << lines[0] << " -> " << miss.error;
  EXPECT_EQ(field(miss.value, "type"), "run");
  EXPECT_EQ(field(miss.value, "experiment"), "fig7.1/n64-k6");
  EXPECT_EQ(field(miss.value, "cache"), "miss");
  EXPECT_EQ(field(miss.value, "status"), "ok");
  EXPECT_FALSE(field(miss.value, "trace_id").empty());
  EXPECT_NE(miss.value.find("ts"), nullptr);
  EXPECT_NE(miss.value.find("wall_ms"), nullptr);
  EXPECT_EQ(span_names(miss.value),
            (std::vector<std::string>{"request", "parse", "cache-lookup", "engine-run",
                                      "record-write", "render"}));

  // A traced cold run carries the engine profile; totals must be coherent.
  const JsonValue* profile = miss.value.find("profile");
  ASSERT_NE(profile, nullptr);
  std::uint64_t samples = 0;
  ASSERT_TRUE(profile->find("samples")->to_u64(samples));
  EXPECT_EQ(samples, 2000u);

  const JsonParse hit = parse_json(lines[1]);
  ASSERT_TRUE(hit.ok()) << lines[1] << " -> " << hit.error;
  EXPECT_EQ(field(hit.value, "cache"), "hit-memory");
  EXPECT_EQ(span_names(hit.value),
            (std::vector<std::string>{"request", "parse", "cache-lookup", "render"}));
  EXPECT_EQ(hit.value.find("profile"), nullptr);  // no engine run on a hit
}

TEST(ExperimentService, TraceLogRotatesAtItsCap) {
  const std::string trace_path = temp_file("tracelog_rotate.jsonl");
  ServiceConfig config;
  config.threads = 1;
  config.trace_log = trace_path;
  config.trace_log_max_bytes = 4096;
  ExperimentService service(config);
  ASSERT_EQ(service.log_error(), "");

  // A logged hit writes a few hundred bytes: 40 of them pass 4 KiB twice.
  const char* run = R"({"request": "run", "experiment": "fig7.1/n64-k6", "samples": 2000})";
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(service.handle_line(run).ok);

  ASSERT_TRUE(std::filesystem::exists(trace_path + ".1"));
  for (const std::string& path : {trace_path, trace_path + ".1"}) {
    EXPECT_LE(std::filesystem::file_size(path), 4096u) << path;
    const std::vector<std::string> lines = read_lines(path);
    EXPECT_FALSE(lines.empty()) << path;
    for (const std::string& line : lines) {
      const JsonParse parsed = parse_json(line);
      ASSERT_TRUE(parsed.ok()) << path << ": " << line << " -> " << parsed.error;
      std::vector<TraceSpan> spans;
      EXPECT_EQ(parse_spans(parsed.value, spans), "") << line;
      EXPECT_FALSE(spans.empty()) << line;
    }
  }
}

TEST(ExperimentService, TraceLineExtendsTheAccessLineByteForByte) {
  // The entry is rendered once: the trace line is the access line with its
  // closing brace replaced by the span tree (and a traced run's profile).
  const std::string trace_path = temp_file("extend_trace.jsonl");
  const std::string access_path = temp_file("extend_access.jsonl");
  ServiceConfig config;
  config.threads = 1;
  config.trace_log = trace_path;
  config.access_log = access_path;
  ExperimentService service(config);
  ASSERT_EQ(service.log_error(), "");

  const char* run = R"({"request": "run", "experiment": "fig7.1/n64-k6", "samples": 2000, )"
                    R"("origin": "sweep"})";
  EXPECT_TRUE(service.handle_line(run).ok);   // miss: carries a profile
  EXPECT_TRUE(service.handle_line(run).ok);   // memory hit
  EXPECT_TRUE(service.handle_line(R"({"request": "list", "trace": true, )"
                                  R"("trace_id": "we\"ird\tid"})")
                  .ok);
  EXPECT_FALSE(service.handle_line(R"({"request": "describe"})").ok);  // error + code
  EXPECT_FALSE(service.handle_line("not json").ok);                    // invalid

  const std::vector<std::string> access = read_lines(access_path);
  const std::vector<std::string> trace = read_lines(trace_path);
  ASSERT_EQ(access.size(), 5u);
  ASSERT_EQ(trace.size(), access.size());
  for (std::size_t i = 0; i < access.size(); ++i) {
    const JsonParse access_entry = parse_json(access[i]);
    const JsonParse trace_entry = parse_json(trace[i]);
    ASSERT_TRUE(access_entry.ok()) << access[i] << " -> " << access_entry.error;
    ASSERT_TRUE(trace_entry.ok()) << trace[i] << " -> " << trace_entry.error;
    EXPECT_EQ(field(access_entry.value, "trace_id"), field(trace_entry.value, "trace_id"));

    ASSERT_EQ(access[i].back(), '}');
    const std::string prefix = access[i].substr(0, access[i].size() - 1);
    ASSERT_EQ(trace[i].compare(0, prefix.size(), prefix), 0)
        << "access: " << access[i] << "\ntrace:  " << trace[i];
    const std::string tail = trace[i].substr(prefix.size());
    EXPECT_EQ(tail.rfind(", \"spans\": [", 0), 0u) << tail;
    EXPECT_EQ(tail.back(), '}');
    // Only the cold run carries a profile, after the spans.
    EXPECT_EQ(tail.find(", \"profile\": {") != std::string::npos, i == 0) << tail;
  }
  EXPECT_EQ(field(parse_json(access[2]).value, "trace_id"), "we\"ird\tid");
}

TEST(ExperimentService, TracedBatchCarriesProfilesOnlyInsideComputedElements) {
  // Profiles are per computed element: a batch whose last element ran the
  // engine must not echo that element's profile again at envelope level,
  // nor write it onto the batch's trace-log line.
  const std::string trace_path = temp_file("batchprofile.jsonl");
  ServiceConfig config;
  config.threads = 1;
  config.trace_log = trace_path;
  ExperimentService service(config);
  ASSERT_EQ(service.log_error(), "");

  const ExperimentService::Reply reply = service.handle_line(
      R"({"request": "run-batch", "trace": true, "runs": [)"
      R"({"experiment": "fig7.1/n64-k6", "samples": 300}, )"
      R"({"experiment": "fig7.1/n64-k8", "samples": 300}]})");
  ASSERT_TRUE(reply.ok) << reply.line;
  const JsonParse parsed = parse_json(reply.line);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_NE(parsed.value.find("spans"), nullptr);  // the echo itself is there
  EXPECT_EQ(parsed.value.find("profile"), nullptr) << reply.line;
  const JsonValue* results = parsed.value.find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->items().size(), 2u);
  for (const JsonValue& element : results->items()) {
    EXPECT_EQ(field(element, "cache"), "miss");
    const JsonValue* profile = element.find("profile");
    ASSERT_NE(profile, nullptr) << reply.line;
    std::uint64_t samples = 0;
    ASSERT_TRUE(profile->find("samples")->to_u64(samples));
    EXPECT_EQ(samples, 300u);
  }

  const std::vector<std::string> lines = read_lines(trace_path);
  ASSERT_EQ(lines.size(), 1u);
  const JsonParse entry = parse_json(lines[0]);
  ASSERT_TRUE(entry.ok()) << lines[0] << " -> " << entry.error;
  EXPECT_EQ(field(entry.value, "type"), "run-batch");
  EXPECT_EQ(entry.value.find("profile"), nullptr) << lines[0];
}

TEST(ExperimentService, AccessLogLinesParseStrictlyAndFlagSlowRequests) {
  const std::string access_path = temp_file("accesslog.jsonl");
  ServiceConfig config;
  config.threads = 1;
  config.access_log = access_path;
  // Slow by construction: a cold 50k-sample run on the per-sample scalar
  // oracle is tens of milliseconds on any host, well past 1 ms.
  config.slow_ms = 1;
  ExperimentService service(config);
  ASSERT_EQ(service.log_error(), "");

  EXPECT_TRUE(service
                  .handle_line(R"({"request": "run", "experiment": "fig7.1/n64-k6", )"
                               R"("samples": 50000, "eval_path": "scalar"})")
                  .ok);
  EXPECT_FALSE(service.handle_line(R"({"request": "describe"})").ok);

  const std::vector<std::string> lines = read_lines(access_path);
  ASSERT_EQ(lines.size(), 2u);

  const JsonParse run = parse_json(lines[0]);
  ASSERT_TRUE(run.ok()) << lines[0] << " -> " << run.error;
  EXPECT_EQ(field(run.value, "type"), "run");
  EXPECT_EQ(field(run.value, "status"), "ok");
  EXPECT_EQ(field(run.value, "cache"), "miss");
  const JsonValue* slow = run.value.find("slow");
  ASSERT_NE(slow, nullptr);
  EXPECT_TRUE(slow->as_bool());
  // Access lines are compact: no span tree (that is the trace log's job).
  EXPECT_EQ(run.value.find("spans"), nullptr);

  const JsonParse error = parse_json(lines[1]);
  ASSERT_TRUE(error.ok()) << lines[1] << " -> " << error.error;
  EXPECT_EQ(field(error.value, "type"), "describe");
  EXPECT_EQ(field(error.value, "status"), "error");
  EXPECT_EQ(field(error.value, "code"), "bad-request");
}

TEST(ExperimentService, UnopenableLogSurfacesThroughLogError) {
  ServiceConfig config;
  config.trace_log = "/nonexistent-dir/sub/trace.jsonl";
  ExperimentService service(config);
  EXPECT_NE(service.log_error().find("/nonexistent-dir"), std::string::npos)
      << service.log_error();
}

TEST(ExperimentService, TracedRunCachesAByteIdenticalRecord) {
  // The ISSUE's determinism gate: observability output lives in replies and
  // logs only — a traced run and an untraced run must write the same bytes
  // to the disk cache.
  const std::string dir_plain = temp_dir("plain");
  const std::string dir_traced = temp_dir("traced");
  const std::string trace_path = temp_file("identity.jsonl");
  {
    ExperimentService service({dir_plain, 64, 1});
    EXPECT_TRUE(
        service
            .handle_line(
                R"({"request": "run", "experiment": "fig7.1/n64-k6", "samples": 2000})")
            .ok);
  }
  {
    ServiceConfig config;
    config.cache_dir = dir_traced;
    config.threads = 1;
    config.trace_log = trace_path;
    ExperimentService service(config);
    EXPECT_TRUE(service
                    .handle_line(R"({"request": "run", "experiment": "fig7.1/n64-k6", )"
                                 R"("samples": 2000, "trace": true})")
                    .ok);
  }
  const auto read_single = [](const std::string& dir) {
    std::string content;
    int count = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() != ".json") continue;  // skip .vlcsa.lock
      ++count;
      std::ifstream in(entry.path(), std::ios::binary);
      content.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    EXPECT_EQ(count, 1) << dir;
    return content;
  };
  EXPECT_EQ(read_single(dir_plain), read_single(dir_traced));
}

}  // namespace
}  // namespace vlcsa::service
