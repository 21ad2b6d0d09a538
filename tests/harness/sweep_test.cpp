// Tests for the sweep subsystem (harness/sweep.hpp): strict spec parsing and
// deterministic grid expansion, the run_sweep orchestration loop over an
// in-process service transport (compute-then-resume — the acceptance
// criterion that a re-run against a warm cache performs zero engine runs and
// returns byte-identical records), the JSONL event log and its validator,
// chunking, and failure behavior (per-cell errors continue, transport
// failures abort with a still-valid log).

#include "harness/sweep.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiments.hpp"
#include "harness/json.hpp"
#include "harness/report.hpp"
#include "service/service.hpp"

namespace vlcsa::harness {
namespace {

using service::ExperimentService;
using service::ServiceConfig;

std::string temp_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("vlcsa_sweep_test_" + std::to_string(::getpid()) + "_" + tag);
  std::filesystem::remove_all(dir);
  return dir.string();
}

std::string temp_file(const std::string& tag) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("vlcsa_sweep_test_" + std::to_string(::getpid()) + "_" + tag);
  std::filesystem::remove(path);
  return path.string();
}

/// A transport over an owned in-process service (the vlcsa_sweep default).
SweepTransport in_process(ExperimentService& service) {
  return [&service](const std::string& request, std::string& reply) {
    reply = service.handle_line(request).line;
    return std::string{};
  };
}

/// Options with progress off (tests must not spam the ctest output).
SweepOptions quiet_options() {
  SweepOptions options;
  options.progress = false;
  return options;
}

SweepLogValidation validate_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  return validate_sweep_event_log(in);
}

TEST(SweepSpec, ExpandsTheCartesianGridDeterministically) {
  const std::string text = R"({
    "name": "grid",
    "experiments": ["table7.1/n64", "eq5.2/n64-uniform"],
    "samples": [1000, 2000],
    "seeds": [1, 2]
  })";
  const SweepSpecParse parsed = parse_sweep_spec(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.spec.name, "grid");
  ASSERT_EQ(parsed.spec.cells.size(), 8u);
  // Expansion order: experiments (entry order) x samples x seeds.
  EXPECT_EQ(parsed.spec.cells[0].id, "table7.1/n64|1000|1|batched");
  EXPECT_EQ(parsed.spec.cells[1].id, "table7.1/n64|1000|2|batched");
  EXPECT_EQ(parsed.spec.cells[2].id, "table7.1/n64|2000|1|batched");
  EXPECT_EQ(parsed.spec.cells[4].id, "eq5.2/n64-uniform|1000|1|batched");
  for (std::size_t i = 0; i < parsed.spec.cells.size(); ++i) {
    EXPECT_EQ(parsed.spec.cells[i].index, i);
    EXPECT_TRUE(parsed.spec.cells[i].error_rate);
  }
  // Same spec, same cells: the property resume is built on.
  const SweepSpecParse again = parse_sweep_spec(text);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again.spec.cells.size(), parsed.spec.cells.size());
  for (std::size_t i = 0; i < parsed.spec.cells.size(); ++i) {
    EXPECT_EQ(again.spec.cells[i].id, parsed.spec.cells[i].id);
  }
}

TEST(SweepSpec, DefaultsResolveToRegistrySamplesAndSeedOne) {
  const SweepSpecParse parsed =
      parse_sweep_spec(R"({"experiments": ["table7.1/n64"]})");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.spec.cells.size(), 1u);
  const auto* experiment = find_error_rate_experiment("table7.1/n64");
  ASSERT_NE(experiment, nullptr);
  EXPECT_EQ(parsed.spec.cells[0].samples, experiment->default_samples);
  EXPECT_EQ(parsed.spec.cells[0].seed, 1u);
  EXPECT_EQ(parsed.spec.name, "sweep");
}

TEST(SweepSpec, PrefixSelectionFollowsRegistryOrderAndDeduplicates) {
  // The exact name repeats inside the prefix selection: one cell, first wins.
  const SweepSpecParse parsed = parse_sweep_spec(
      R"({"experiments": ["eq5.2/n64-uniform", "eq5.2/"], "samples": [1000]})");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const std::size_t registry_count = error_rate_experiments_with_prefix("eq5.2/").size();
  EXPECT_EQ(parsed.spec.cells.size(), registry_count);
  EXPECT_EQ(parsed.spec.cells[0].experiment, "eq5.2/n64-uniform");
}

TEST(SweepSpec, ChainProfileCellsAreKeyedScalar) {
  const SweepSpecParse parsed = parse_sweep_spec(
      R"({"experiments": ["fig6.1/uniform-unsigned"], "samples": [2000]})");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.spec.cells.size(), 1u);
  EXPECT_FALSE(parsed.spec.cells[0].error_rate);
  EXPECT_EQ(parsed.spec.cells[0].eval_path, "scalar");
  EXPECT_EQ(parsed.spec.cells[0].id, "fig6.1/uniform-unsigned|2000|1|scalar");
}

TEST(SweepSpec, StrictValidationRejectsMalformedSpecs) {
  const std::vector<std::pair<const char*, const char*>> cases = {
      {"not json", "malformed"},
      {"[]", "must be a JSON object"},
      {R"({"experiments": ["table7.1/n64"], "typo": 1})", "unknown field 'typo'"},
      {R"({"samples": [1000]})", "requires field 'experiments'"},
      {R"({"experiments": []})", "must not be empty"},
      {R"({"experiments": ["no-such-experiment"]})", "unknown experiment"},
      {R"({"experiments": ["nope/"]})", "matched no experiment"},
      {R"({"experiments": ["table7.1/n64", "table7.1/n64"]})", "repeats value"},
      {R"({"experiments": ["table7.1/n64"], "samples": [0]})", "must be positive"},
      {R"({"experiments": ["table7.1/n64"], "samples": [1000, 1000]})", "repeats value"},
      {R"({"experiments": ["table7.1/n64"], "eval_path": "wat"})",
       "'eval_path' must be"},
      {R"({"experiments": ["fig6.1/uniform-unsigned"], "eval_path": "batched"})",
       "chain-profile"},
      // A sub-grid is an explicit name list; there are no filter fields.
      {R"({"experiments": ["eq5.2/"], "widths": [64]})", "unknown field 'widths'"},
      {R"({"experiments": ["table7.1/n64"], "name": ""})", "non-empty"},
  };
  for (const auto& [spec, needle] : cases) {
    const SweepSpecParse parsed = parse_sweep_spec(spec);
    EXPECT_FALSE(parsed.ok()) << spec;
    EXPECT_NE(parsed.error.find(needle), std::string::npos)
        << spec << " -> " << parsed.error;
  }
}

/// The first ```json block under DESIGN.md's "### Sweep spec" heading.
std::string design_md_sweep_spec_example() {
  const auto path = std::filesystem::path(__FILE__).parent_path() / ".." / ".." / "DESIGN.md";
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::string line;
  bool in_section = false;
  bool in_block = false;
  std::string block;
  while (std::getline(in, line)) {
    if (!in_section) {
      in_section = line == "### Sweep spec";
      continue;
    }
    if (!in_block) {
      if (line.rfind("### ", 0) == 0) break;  // section ended without a block
      in_block = line == "```json";
      continue;
    }
    if (line == "```") return block;
    block += line + "\n";
  }
  return {};
}

TEST(SweepSpec, DesignMdExampleParses) {
  // Documentation contract: the spec DESIGN.md shows is one the parser
  // accepts, so the reference cannot drift from the grammar.
  const std::string example = design_md_sweep_spec_example();
  ASSERT_FALSE(example.empty()) << "DESIGN.md has no ```json block under '### Sweep spec'";
  const SweepSpecParse parsed = parse_sweep_spec(example);
  EXPECT_TRUE(parsed.ok()) << parsed.error << "\n" << example;
  EXPECT_FALSE(parsed.spec.cells.empty());
}

TEST(SweepRun, ComputesEveryCellThenResumesFromCacheByteIdentically) {
  const std::string cache_dir = temp_dir("resume");
  const std::string log_cold = temp_file("resume_cold.jsonl");
  const std::string log_warm = temp_file("resume_warm.jsonl");
  const SweepSpecParse parsed = parse_sweep_spec(
      R"({"name": "resume-grid",
          "experiments": ["fig7.1/n64-k6", "fig6.1/uniform-unsigned"],
          "samples": [2000], "seeds": [1, 2]})");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.spec.cells.size(), 4u);

  SweepOptions options = quiet_options();
  options.event_log_path = log_cold;
  SweepResult cold;
  {
    ServiceConfig config;
    config.cache_dir = cache_dir;
    ExperimentService service(config);
    cold = run_sweep(parsed.spec, options, in_process(service));
  }
  ASSERT_TRUE(cold.ok()) << cold.error;
  EXPECT_EQ(cold.computed_cells, 4u);
  EXPECT_EQ(cold.resumed_cells, 0u);
  EXPECT_EQ(cold.failed_cells, 0u);
  ASSERT_EQ(cold.cells.size(), 4u);
  for (const SweepCellResult& cell : cold.cells) {
    EXPECT_TRUE(cell.ok);
    EXPECT_EQ(cell.cache, "miss");
    EXPECT_FALSE(cell.record.empty());
    EXPECT_FALSE(cell.profile.empty()) << "computed cells must carry a RunProfile";
    EXPECT_FALSE(cell.trace_id.empty());
  }
  // The computed profiles rolled up: 4 cells x 2000 samples, and the whole
  // rollup is the += of every computed cell's parsed profile.
  EXPECT_EQ(cold.profile_totals.cells, 4u);
  EXPECT_EQ(cold.profile_totals.profile.samples, 8000u);
  RunProfile expected;
  for (const SweepCellResult& cell : cold.cells) {
    const JsonParse profile_json = parse_json(cell.profile);
    ASSERT_TRUE(profile_json.ok()) << profile_json.error;
    const std::optional<RunProfile> profile = parse_run_profile(profile_json.value);
    ASSERT_TRUE(profile.has_value()) << cell.profile;
    expected += *profile;
  }
  EXPECT_EQ(cold.profile_totals.profile, expected);
  // The report renders the rollup under the vlcsa-sweep-1 keys, in order,
  // with the merged threads as threads_max.
  {
    const JsonParse report = parse_json(render_sweep_report(parsed.spec, options, cold));
    ASSERT_TRUE(report.ok()) << report.error;
    const JsonValue* totals = report.value.find("profile_totals");
    ASSERT_NE(totals, nullptr);
    const std::vector<std::string> keys = {
        "cells",        "shards",         "samples",      "batch_blocks",
        "batched_samples", "scalar_samples", "rng_words", "fill_seconds",
        "eval_seconds", "merge_seconds",  "threads_max",  "backend"};
    ASSERT_EQ(totals->members().size(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(totals->members()[i].first, keys[i]);
    }
    const auto u64 = [&](const char* name) {
      std::uint64_t value = 0;
      EXPECT_TRUE(totals->find(name)->to_u64(value)) << name;
      return value;
    };
    EXPECT_EQ(u64("cells"), 4u);
    EXPECT_EQ(u64("shards"), expected.shards);
    EXPECT_EQ(u64("samples"), expected.samples);
    EXPECT_EQ(u64("batch_blocks"), expected.batch_blocks);
    EXPECT_EQ(u64("batched_samples"), expected.batched_samples);
    EXPECT_EQ(u64("scalar_samples"), expected.scalar_samples);
    EXPECT_EQ(u64("rng_words"), expected.rng_words);
    EXPECT_EQ(totals->find("fill_seconds")->as_double(), expected.fill_seconds);
    EXPECT_EQ(totals->find("eval_seconds")->as_double(), expected.eval_seconds);
    EXPECT_EQ(totals->find("merge_seconds")->as_double(), expected.merge_seconds);
    EXPECT_EQ(u64("threads_max"), static_cast<std::uint64_t>(expected.threads));
    EXPECT_EQ(totals->find("backend")->as_string(), expected.backend);
  }
  // The lifted record bytes are exactly the registry's one definition of a
  // record (copied by parsed byte range, never re-rendered).
  for (const SweepCellResult& cell : cold.cells) {
    EvalPath path = EvalPath::kBatched;
    ASSERT_TRUE(parse_eval_path(cell.cell.eval_path, path));
    const KeyResolution key =
        record_key(cell.cell.experiment, cell.cell.samples, cell.cell.seed,
                   cell.cell.error_rate ? std::optional(path) : std::nullopt);
    ASSERT_TRUE(key.ok()) << cell.cell.id;
    EXPECT_EQ(key.key.path, path) << cell.cell.id;
    EXPECT_EQ(cell.record, run_record(key.key, RunOptions{}).record) << cell.cell.id;
  }
  const SweepLogValidation cold_log = validate_file(log_cold);
  ASSERT_TRUE(cold_log.ok()) << cold_log.error;
  EXPECT_EQ(cold_log.cells, 4u);
  EXPECT_EQ(cold_log.computed, 4u);

  // A fresh service over the same cache dir: resume-by-construction answers
  // every cell from prior work, with byte-identical records.
  options.event_log_path = log_warm;
  SweepResult warm;
  {
    ServiceConfig config;
    config.cache_dir = cache_dir;
    config.memory_entries = 0;  // force the disk tier: cross-process resume
    ExperimentService service(config);
    warm = run_sweep(parsed.spec, options, in_process(service));
  }
  ASSERT_TRUE(warm.ok()) << warm.error;
  EXPECT_EQ(warm.computed_cells, 0u);
  EXPECT_EQ(warm.resumed_cells, 4u);
  EXPECT_EQ(warm.failed_cells, 0u);
  ASSERT_EQ(warm.cells.size(), 4u);
  for (std::size_t i = 0; i < warm.cells.size(); ++i) {
    EXPECT_TRUE(warm.cells[i].cached);
    EXPECT_EQ(warm.cells[i].cache, "hit-disk");
    EXPECT_EQ(warm.cells[i].record, cold.cells[i].record) << warm.cells[i].cell.id;
    EXPECT_TRUE(warm.cells[i].profile.empty()) << "cache hits must not re-profile";
  }
  const SweepLogValidation warm_log = validate_file(log_warm);
  ASSERT_TRUE(warm_log.ok()) << warm_log.error;
  EXPECT_EQ(warm_log.resumed, 4u);
  EXPECT_EQ(warm_log.computed, 0u);

  // The vlcsa-sweep-1 report round-trips through the strict parser and
  // carries the accounting.
  const std::string report = render_sweep_report(parsed.spec, options, warm);
  const JsonParse report_parse = parse_json(report);
  ASSERT_TRUE(report_parse.ok()) << report_parse.error;
  const JsonValue* schema = report_parse.value.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->as_string(), "vlcsa-sweep-1");
  std::uint64_t resumed = 0;
  ASSERT_TRUE(report_parse.value.find("resumed_cells")->to_u64(resumed));
  EXPECT_EQ(resumed, 4u);
  const JsonValue* records = report_parse.value.find("cell_records");
  ASSERT_NE(records, nullptr);
  EXPECT_EQ(records->items().size(), 4u);
}

TEST(SweepRun, ChunkSizeControlsTheRequestCount) {
  const SweepSpecParse parsed = parse_sweep_spec(
      R"({"experiments": ["fig7.1/n64-k6"], "samples": [2000], "seeds": [1, 2, 3]})");
  ASSERT_TRUE(parsed.ok()) << parsed.error;

  for (const auto& [chunk, expected_requests] :
       std::vector<std::pair<std::size_t, int>>{{1, 3}, {2, 2}, {16, 1}}) {
    ServiceConfig config;
    ExperimentService service(config);
    int requests = 0;
    SweepOptions options = quiet_options();
    options.chunk = chunk;
    const SweepResult result = run_sweep(
        parsed.spec, options, [&](const std::string& request, std::string& reply) {
          ++requests;
          reply = service.handle_line(request).line;
          return std::string{};
        });
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(requests, expected_requests) << "chunk " << chunk;
    EXPECT_EQ(result.computed_cells + result.resumed_cells, 3u);
  }
}

TEST(SweepRun, ProgressLineReportsCountsRateAndEta) {
  const SweepSpecParse parsed = parse_sweep_spec(
      R"({"experiments": ["fig7.1/n64-k6"], "samples": [2000], "seeds": [1, 2]})");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ServiceConfig config;
  ExperimentService service(config);
  std::ostringstream progress;
  SweepOptions options;
  options.chunk = 1;
  options.progress_out = &progress;
  const SweepResult result = run_sweep(parsed.spec, options, in_process(service));
  ASSERT_TRUE(result.ok()) << result.error;
  const std::string text = progress.str();
  // One update before each chunk, then the closing line.
  EXPECT_NE(text.find("\r[sweep] 0/2 (0 computed, 0 cached, 0 failed) 0.0 cells/s eta 0s  "
                      "fig7.1/n64-k6"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\r[sweep] 1/2 (1 computed, 0 cached, 0 failed) "), std::string::npos)
      << text;
  EXPECT_NE(text.find("\r[sweep] 2/2 (2 computed, 0 cached, 0 failed) "), std::string::npos)
      << text;
  EXPECT_NE(text.find(" cells/s eta 0s  done"), std::string::npos) << text;
  EXPECT_EQ(text.back(), '\n');
}

TEST(SweepRun, PerCellErrorsFailTheCellAndContinue) {
  // One real cell, then a spec whose second cell times out is hard to build
  // deterministically — instead drive the per-element error path with a
  // scripted transport replying a mixed batch.
  const SweepSpecParse parsed = parse_sweep_spec(
      R"({"experiments": ["fig7.1/n64-k6"], "samples": [2000], "seeds": [1, 2]})");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const std::string log_path = temp_file("mixed.jsonl");
  SweepOptions options = quiet_options();
  options.event_log_path = log_path;
  const SweepResult result = run_sweep(
      parsed.spec, options, [&](const std::string&, std::string& reply) {
        reply =
            R"({"status": "ok", "count": 2, "ok_count": 1, "results": [)"
            R"({"status": "ok", "experiment": "fig7.1/n64-k6", "cache": "miss", "record": {"x": 1}}, )"
            R"({"status": "error", "error": "boom", "code": "internal"}]})";
        return std::string{};
      });
  ASSERT_TRUE(result.ok()) << result.error;  // per-cell failure, sweep completes
  EXPECT_EQ(result.computed_cells, 1u);
  EXPECT_EQ(result.failed_cells, 1u);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.cells[0].record, "{\"x\": 1}");
  EXPECT_EQ(result.cells[1].code, "internal");
  const SweepLogValidation log = validate_file(log_path);
  ASSERT_TRUE(log.ok()) << log.error;
  EXPECT_EQ(log.failed, 1u);
}

TEST(SweepRun, TransportFailureAbortsButTheEventLogStaysValid) {
  const SweepSpecParse parsed = parse_sweep_spec(
      R"({"experiments": ["fig7.1/n64-k6"], "samples": [2000], "seeds": [1, 2, 3]})");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const std::string log_path = temp_file("abort.jsonl");
  ServiceConfig config;
  ExperimentService service(config);
  int requests = 0;
  SweepOptions options = quiet_options();
  options.chunk = 1;
  options.event_log_path = log_path;
  const SweepResult result = run_sweep(
      parsed.spec, options, [&](const std::string& request, std::string& reply) {
        if (++requests == 2) return std::string("connection reset");
        reply = service.handle_line(request).line;
        return std::string{};
      });
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("transport"), std::string::npos) << result.error;
  EXPECT_EQ(result.computed_cells, 1u);
  EXPECT_EQ(result.failed_cells, 1u);
  EXPECT_EQ(requests, 2);  // the third chunk was never attempted
  // The log still validates: started cells all terminated, counts reconcile,
  // and the sweep-done line says aborted (so full coverage is not required).
  const SweepLogValidation log = validate_file(log_path);
  ASSERT_TRUE(log.ok()) << log.error;
  EXPECT_EQ(log.computed, 1u);
  EXPECT_EQ(log.failed, 1u);
}

TEST(SweepLog, ValidatorRejectsStructurallyBrokenLogs) {
  const char* start = R"({"event": "sweep-start", "sweep": "s", "cells": 1})";
  const char* cell_start = R"({"event": "cell-start", "cell": "c1"})";
  const char* cell_done =
      R"({"event": "cell-done", "cell": "c1", "wall_ms": 1.0, "cache": "miss"})";
  const char* done =
      R"({"event": "sweep-done", "status": "ok", "cells": 1, "computed_cells": 1,)"
      R"( "resumed_cells": 0, "failed_cells": 0})";

  const auto validate_text = [](std::initializer_list<const char*> lines) {
    std::string text;
    for (const char* line : lines) text += std::string(line) + "\n";
    std::istringstream in(text);
    return validate_sweep_event_log(in);
  };

  // The well-formed baseline passes.
  EXPECT_TRUE(validate_text({start, cell_start, cell_done, done}).ok());
  // First event must be sweep-start.
  EXPECT_NE(validate_text({cell_start, cell_done, done}).error.find("sweep-start"),
            std::string::npos);
  // A terminal without a start.
  EXPECT_NE(validate_text({start, cell_done, done}).error.find("without a cell-start"),
            std::string::npos);
  // Two terminals for one cell.
  EXPECT_NE(
      validate_text({start, cell_start, cell_done, cell_done, done}).error.find("second"),
      std::string::npos);
  // A started cell with no terminal.
  EXPECT_NE(validate_text({start, cell_start, done}).error.find("no terminal"),
            std::string::npos);
  // Missing sweep-done.
  EXPECT_NE(validate_text({start, cell_start, cell_done}).error.find("no sweep-done"),
            std::string::npos);
  // Events after sweep-done.
  EXPECT_NE(validate_text({start, cell_start, cell_done, done, cell_start})
                .error.find("after sweep-done"),
            std::string::npos);
  // Counts that do not reconcile.
  const char* wrong_done =
      R"({"event": "sweep-done", "status": "ok", "cells": 1, "computed_cells": 0,)"
      R"( "resumed_cells": 1, "failed_cells": 0})";
  EXPECT_NE(validate_text({start, cell_start, cell_done, wrong_done})
                .error.find("reconcile"),
            std::string::npos);
}

TEST(SweepRun, EventLogOpenFailureIsASweepError) {
  const SweepSpecParse parsed =
      parse_sweep_spec(R"({"experiments": ["fig7.1/n64-k6"], "samples": [2000]})");
  ASSERT_TRUE(parsed.ok());
  SweepOptions options = quiet_options();
  options.event_log_path = "/nonexistent-dir/sub/sweep.jsonl";
  const SweepResult result =
      run_sweep(parsed.spec, options, [](const std::string&, std::string&) {
        ADD_FAILURE() << "transport must not be reached";
        return std::string{};
      });
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("event log"), std::string::npos) << result.error;
}

}  // namespace
}  // namespace vlcsa::harness
