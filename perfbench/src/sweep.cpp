// sweep-cold / sweep-warm: vlcsa_sweep in-process passes over a registry
// grid, computing every cell on an empty cache dir (cold) or resuming every
// cell from the disk tier (warm).

#include <algorithm>
#include <set>
#include <stdexcept>

#include "harness/json.hpp"
#include "service/service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace hn = vlcsa::harness;

std::uint64_t report_count(const hn::JsonValue& report, const char* field) {
  std::uint64_t value = 0;
  const hn::JsonValue* member = report.find(field);
  if (member == nullptr || !member->to_u64(value)) {
    throw std::runtime_error(std::string("sweep report lacks ") + field);
  }
  return value;
}

void compare_records(const std::vector<std::string>& got, const std::vector<std::string>& want,
                     const std::string& what, Outcome& out) {
  if (got.size() != want.size()) {
    out.fail(what + ": " + std::to_string(got.size()) + " records, expected " +
             std::to_string(want.size()));
    return;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) out.fail(what + ": record " + std::to_string(i) + " differs");
  }
}

}  // namespace

void prepare_sweep_dir(const std::string& dir, const std::string& spec_text) {
  remove_tree(dir);
  make_dirs(dir + "/cache");
  write_file(dir + "/spec.json", spec_text);
  (void)sweep_keys(spec_text);  // spec expansion
}

std::vector<std::string> reference_records(const std::vector<RunKey>& keys) {
  vlcsa::service::ServiceConfig config;
  config.threads = 1;
  config.memory_entries = 0;
  vlcsa::service::ExperimentService service(config);
  std::vector<std::string> records;
  for (const RunKey& key : keys) {
    const std::string reply = service.handle_line(run_line(key)).line;
    std::size_t from = 0;
    records.push_back(raw_object_field(reply, "record", from));
  }
  return records;
}

PassResult sweep_pass(const Args& args, const std::string& dir, PassKind kind, Outcome& out) {
  remove_tree(dir + "/events.jsonl");
  remove_tree(dir + "/report.json");
  const RunResult run =
      run_process(sweep_argv(args.bin_dir, "spec.json", "cache", "report.json", "events.jsonl"),
                  dir, dir + "/stdout.log", dir + "/stderr.log");
  if (!run.error.empty()) throw std::runtime_error("vlcsa_sweep: " + run.error);

  PassResult pass;
  pass.wall_s = run.wall_s;
  pass.max_rss_mb = run.max_rss_mb;
  const std::string report_text = read_file(dir + "/report.json");
  const hn::JsonParse report = hn::parse_json(report_text);
  if (!report.ok()) {
    throw std::runtime_error("vlcsa_sweep exit " + std::to_string(run.status) +
                             ", no report: " + read_file(dir + "/stderr.log"));
  }
  pass.cells = report_count(report.value, "cells");
  out.attempted += pass.cells;
  const std::uint64_t failed = report_count(report.value, "failed_cells");
  const std::uint64_t computed = report_count(report.value, "computed_cells");
  const std::uint64_t resumed = report_count(report.value, "resumed_cells");
  for (std::uint64_t i = 0; i < failed; ++i) out.fail("cell-error in " + dir);
  if (run.status != 0) out.fail("vlcsa_sweep exited " + std::to_string(run.status));
  if (kind == PassKind::kCold && computed != pass.cells) {
    out.fail("cold pass computed " + std::to_string(computed) + " of " +
             std::to_string(pass.cells) + " cells");
  }
  if (kind == PassKind::kWarm && (computed != 0 || resumed != pass.cells)) {
    out.fail("warm pass computed " + std::to_string(computed) + " cells");
  }
  for (std::size_t from = 0;;) {
    std::string record = raw_object_field(report_text, "record", from);
    if (record.empty()) break;
    pass.records.push_back(std::move(record));
  }
  const RunResult validate = run_process({args.bin_dir + "/vlcsa_sweep", "--validate=events.jsonl"},
                                         dir, dir + "/validate.log", dir + "/validate.err");
  if (validate.status != 0) {
    out.fail("event log failed vlcsa_sweep --validate: " + read_file(dir + "/validate.err"));
  }
  return pass;
}

void run_sweep(const Args& args, Outcome& out) {
  const bool warm = args.workload == "sweep-warm";
  const std::string dir = "sweep";

  // Set-up, repeated: spec expansion and an empty cache dir, plus (warm)
  // the cold pass that fills the disk tier.
  std::vector<double> setups;
  PassResult filled;
  const int reps = warm ? 9 : 15;  // setup_s is their median
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    prepare_sweep_dir(dir, sweep_spec(args.seed, 0, args.tiny));
    if (warm) filled = sweep_pass(args, dir, PassKind::kCold, out);
    setups.push_back(seconds_since(start));
  }

  // The grid's records must equal what the service renders in-process.
  std::vector<std::string> expected =
      reference_records(sweep_keys(sweep_spec(args.seed, 0, args.tiny)));
  Fnv fnv;
  std::set<std::string> versions;  // the grid mixes unversioned and versioned families
  for (const std::string& record : expected) {
    fnv.bytes(record);
    const hn::JsonParse parsed = hn::parse_json(record);
    const hn::JsonValue* version = parsed.ok() ? parsed.value.find("stream_version") : nullptr;
    versions.insert(version == nullptr ? "none" : version->as_string());
  }
  if (args.fault == "corrupt-expected") {
    for (std::string& record : expected) record[1] = 'X';
  }
  if (warm) compare_records(filled.records, expected, "cold fill", out);

  std::vector<double> per_cell;
  std::vector<double> calibration;
  double wall = 0.0;
  double rss = filled.max_rss_mb;
  std::uint64_t cells = 0;
  const auto start = Clock::now();
  for (std::uint64_t pass = 0; pass == 0 || seconds_since(start) < args.seconds; ++pass) {
    if (!warm && pass > 0) prepare_sweep_dir(dir, sweep_spec(args.seed, pass, args.tiny));
    const PassResult result =
        sweep_pass(args, dir, warm ? PassKind::kWarm : PassKind::kCold, out);
    if (warm || pass == 0) compare_records(result.records, expected, "pass", out);
    per_cell.push_back(result.wall_s / static_cast<double>(result.cells));
    wall += result.wall_s;
    cells += result.cells;
    rss = std::max(rss, result.max_rss_mb);
    calibration.push_back(calibration_s());  // between passes
  }

  const std::vector<double> scaled = scale_each(per_cell, calibration);
  double busy = 0.0;
  for (const double cell : scaled) busy += cell;
  out.add("setup_s", median(setups) * speed_scale(calibration), "s");
  out.add("op_p50_us", median(scaled) * 1e6, "us");
  out.add("ops_per_s", static_cast<double>(scaled.size()) / busy, "1/s");
  out.add("peak_rss_mb", rss, "MB");
  out.fingerprint["raw_op_p50_us"] = std::to_string(median(per_cell) * 1e6);
  out.fingerprint["raw_ops_per_s"] = std::to_string(static_cast<double>(cells) / wall);
  out.fingerprint["cells_per_pass"] = std::to_string(expected.size());
  out.fingerprint["passes"] = std::to_string(per_cell.size());
  out.fingerprint["sim_hash"] = fnv.hex();
  out.fingerprint["calibration_us"] = std::to_string(median(calibration) * 1e6);
  std::string stream_versions;
  for (const std::string& version : versions) {
    stream_versions += (stream_versions.empty() ? "" : ",") + version;
  }
  out.fingerprint["stream_version"] = stream_versions;
}

void trace_sweep(const Args& args, SpanLog& spans, Outcome& out) {
  const bool warm = args.workload == "sweep-warm";
  const std::string dir = "sweep-trace";
  const PassKind kind = warm ? PassKind::kWarm : PassKind::kCold;
  prepare_sweep_dir(dir, sweep_spec(args.seed, 0, args.tiny));
  if (warm) (void)sweep_pass(args, dir, PassKind::kCold, out);

  // Alternate untraced and traced passes (a span around each pass).
  std::vector<double> untraced;
  std::vector<double> traced;
  const auto start = Clock::now();
  for (std::uint64_t pass = 0; pass < 4 || seconds_since(start) < args.seconds * 0.3; ++pass) {
    if (!warm) prepare_sweep_dir(dir, sweep_spec(args.seed, pass, args.tiny));
    if (pass % 2 == 0) {
      const PassResult result = sweep_pass(args, dir, kind, out);
      untraced.push_back(result.wall_s / static_cast<double>(result.cells));
    } else {
      const SpanLog::Handle span = spans.open(warm ? "sweep_warm_pass" : "sweep_cold_pass");
      const PassResult result = sweep_pass(args, dir, kind, out);
      spans.close(span);
      traced.push_back(result.wall_s / static_cast<double>(result.cells));
    }
  }
  const double cells = static_cast<double>(sweep_keys(sweep_spec(args.seed, 0, args.tiny)).size());
  const double e2e_ms = median(untraced) * 1e3;
  const double fixed_ms = (out.get("process.start_ms") + out.get("harness.sweep.expand_ms")) / cells;
  const double layers_ms = warm ? fixed_ms + out.get("service.cache.get_disk_us") / 1e3
                                : fixed_ms + out.get("service.run_batch_ms_per_cell");
  out.add("trace_overhead", median(traced) / median(untraced), "ratio");
  out.add("residual_share", 1.0 - layers_ms / e2e_ms, "ratio");
}

}  // namespace perfbench
