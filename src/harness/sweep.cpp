#include "harness/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <istream>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "harness/experiments.hpp"
#include "harness/json.hpp"
#include "harness/montecarlo.hpp"
#include "harness/report.hpp"
#include "service/trace.hpp"

namespace vlcsa::harness {

namespace {

/// Reads an optional array of non-empty strings; "" or an error message.
std::string read_string_axis(const JsonValue& spec, const char* name,
                             std::vector<std::string>& out, bool& given) {
  const JsonValue* field = spec.find(name);
  given = field != nullptr;
  if (field == nullptr) return {};
  if (field->kind() != JsonValue::Kind::kArray) {
    return std::string("field '") + name + "' must be an array of strings";
  }
  for (const JsonValue& item : field->items()) {
    if (item.kind() != JsonValue::Kind::kString || item.as_string().empty()) {
      return std::string("field '") + name + "' must contain non-empty strings";
    }
    for (const std::string& prior : out) {
      if (prior == item.as_string()) {
        return std::string("field '") + name + "' repeats value '" + prior + "'";
      }
    }
    out.push_back(item.as_string());
  }
  if (out.empty()) return std::string("field '") + name + "' must not be empty";
  return {};
}

/// Reads an optional array of unsigned integers; "" or an error message.
std::string read_u64_axis(const JsonValue& spec, const char* name,
                          std::vector<std::uint64_t>& out, bool& given) {
  const JsonValue* field = spec.find(name);
  given = field != nullptr;
  if (field == nullptr) return {};
  if (field->kind() != JsonValue::Kind::kArray) {
    return std::string("field '") + name + "' must be an array of non-negative integers";
  }
  for (const JsonValue& item : field->items()) {
    std::uint64_t value = 0;
    if (!item.to_u64(value)) {
      return std::string("field '") + name + "' must contain non-negative integers";
    }
    if (std::find(out.begin(), out.end(), value) != out.end()) {
      return std::string("field '") + name + "' repeats value " + std::to_string(value);
    }
    out.push_back(value);
  }
  if (out.empty()) return std::string("field '") + name + "' must not be empty";
  return {};
}

double now_epoch_seconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string read_string_member(const JsonValue& object, const char* name) {
  const JsonValue* field = object.find(name);
  if (field == nullptr || field->kind() != JsonValue::Kind::kString) return {};
  return field->as_string();
}

void add_stage_us(std::vector<std::pair<std::string, std::uint64_t>>& totals,
                  const std::string& name, std::uint64_t us) {
  for (auto& [stage, total] : totals) {
    if (stage == name) {
      total += us;
      return;
    }
  }
  totals.emplace_back(name, us);
}

/// Live progress line: counts, throughput, ETA at that throughput, current
/// cell.  One \r-rewritten line so a watching terminal sees it update in
/// place.
void render_progress(std::ostream& out, std::uint64_t done, std::uint64_t total,
                     std::uint64_t computed, std::uint64_t resumed, std::uint64_t failed,
                     double elapsed_seconds, const std::string& label) {
  const double rate = elapsed_seconds > 0.0
                          ? static_cast<double>(done) / elapsed_seconds
                          : 0.0;
  const double eta_seconds = rate > 0.0 ? static_cast<double>(total - done) / rate : 0.0;
  char line[256];
  std::snprintf(line, sizeof(line),
                "\r[sweep] %llu/%llu (%llu computed, %llu cached, %llu failed) "
                "%.1f cells/s eta %.0fs  %s",
                static_cast<unsigned long long>(done),
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(computed),
                static_cast<unsigned long long>(resumed),
                static_cast<unsigned long long>(failed), rate, eta_seconds,
                label.c_str());
  // Pad over any longer previous line, then rewind so the next update (or
  // the closing newline) lands cleanly.
  out << line << "                    " << "\r" << line << std::flush;
}

}  // namespace

SweepSpecParse parse_sweep_spec(const std::string& text) {
  SweepSpecParse out;
  const JsonParse parse = parse_json(text);
  if (!parse.ok()) {
    out.error = "malformed sweep spec: " + parse.error;
    return out;
  }
  if (parse.value.kind() != JsonValue::Kind::kObject) {
    out.error = "sweep spec must be a JSON object";
    return out;
  }
  const JsonValue& spec = parse.value;
  if (std::string error = check_fields(
          spec, {"name", "experiments", "samples", "seeds", "eval_path"}, "in sweep spec");
      !error.empty()) {
    out.error = std::move(error);
    return out;
  }

  // Identity.
  out.spec.name = "sweep";
  if (const JsonValue* name = spec.find("name"); name != nullptr) {
    if (name->kind() != JsonValue::Kind::kString || name->as_string().empty()) {
      out.error = "field 'name' must be a non-empty string";
      return out;
    }
    out.spec.name = name->as_string();
  }

  // Selection: exact names or "prefix/" entries, registry order per entry,
  // deduplicated across entries.
  std::vector<std::string> entries;
  bool experiments_given = false;
  if (std::string error = read_string_axis(spec, "experiments", entries, experiments_given);
      !error.empty()) {
    out.error = std::move(error);
    return out;
  }
  if (!experiments_given) {
    out.error = "sweep spec requires field 'experiments'";
    return out;
  }
  std::vector<std::string_view> selection;  // registry-owned names
  std::unordered_set<std::string_view> seen;
  for (const std::string& entry : entries) {
    std::vector<std::string_view> matched;
    if (entry.back() == '/') {
      for (const auto* experiment : error_rate_experiments_with_prefix(entry)) {
        matched.push_back(experiment->name);
      }
      for (const auto* experiment : chain_profile_experiments_with_prefix(entry)) {
        matched.push_back(experiment->name);
      }
      if (matched.empty()) {
        out.error = "experiments entry '" + entry + "' matched no experiment";
        return out;
      }
    } else if (const auto* experiment = find_error_rate_experiment(entry)) {
      matched.push_back(experiment->name);
    } else if (const auto* experiment = find_chain_profile_experiment(entry)) {
      matched.push_back(experiment->name);
    } else {
      out.error = "unknown experiment '" + entry + "' (exact name or \"prefix/\")";
      return out;
    }
    for (const std::string_view name : matched) {
      if (seen.insert(name).second) selection.push_back(name);
    }
  }

  // Eval path: record_key rejects it for chain profiles.  Checked before
  // the numeric axes, so a spec with several faults reports the same one.
  std::optional<EvalPath> path;
  if (const JsonValue* field = spec.find("eval_path"); field != nullptr) {
    if (field->kind() != JsonValue::Kind::kString ||
        !parse_eval_path(field->as_string(), path.emplace())) {
      out.error = "field 'eval_path' must be \"batched\" or \"scalar\"";
      return out;
    }
    for (const std::string_view name : selection) {
      if (!record_key(name, 0, 1, path).ok()) {
        out.error = "field 'eval_path' only applies to error-rate experiments; '" +
                    std::string(name) + "' is a chain-profile experiment";
        return out;
      }
    }
  }

  // Numeric axes.  An absent samples axis means one cell per experiment at
  // its registry default (the 0 sentinel, resolved during expansion).
  std::vector<std::uint64_t> samples_axis;
  std::vector<std::uint64_t> seeds;
  bool samples_given = false;
  bool seeds_given = false;
  if (std::string error = read_u64_axis(spec, "samples", samples_axis, samples_given);
      !error.empty()) {
    out.error = std::move(error);
    return out;
  }
  for (const std::uint64_t samples : samples_axis) {
    if (samples == 0) {
      out.error = "field 'samples' values must be positive (omit the axis for defaults)";
      return out;
    }
  }
  if (!samples_given) samples_axis.push_back(0);
  if (std::string error = read_u64_axis(spec, "seeds", seeds, seeds_given); !error.empty()) {
    out.error = std::move(error);
    return out;
  }
  if (!seeds_given) seeds.push_back(1);

  // Expansion: experiments (selection order) × samples × seeds, each cell
  // the record key the registry resolves (samples 0 = the entry default,
  // chain profiles on the scalar path).  Duplicates collapse by id (an
  // explicit samples value equal to a default can collide; the first
  // occurrence wins, order stays deterministic).
  std::unordered_set<std::string> ids;
  for (const std::string_view name : selection) {
    const bool error_rate = find_error_rate_experiment(name) != nullptr;
    for (const std::uint64_t samples : samples_axis) {
      for (const std::uint64_t seed : seeds) {
        RecordKey key = record_key(name, samples, seed, path).key;
        std::string id = encode_key(key, KeyEncoding::kCellId);
        if (!ids.insert(id).second) continue;
        out.spec.cells.push_back({std::move(id), out.spec.cells.size(), std::move(key.experiment),
                                  key.samples, key.seed, to_string(key.path), error_rate});
      }
    }
  }
  return out;
}

SweepResult run_sweep(const SweepSpec& spec, const SweepOptions& options,
                      const SweepTransport& transport) {
  SweepResult out;
  if (options.chunk == 0) {
    out.error = "chunk size must be at least 1";
    return out;
  }
  if (!transport) {
    out.error = "no transport configured";
    return out;
  }
  std::ostream& progress =
      options.progress_out != nullptr ? *options.progress_out : std::cerr;
  service::JsonlLog event_log;
  if (!options.event_log_path.empty()) {
    if (std::string error =
            event_log.open(options.event_log_path, options.event_log_max_bytes);
        !error.empty()) {
      out.error = "cannot open event log: " + error;
      return out;
    }
  }
  const auto emit = [&](JsonObject& event) {
    if (event_log.enabled()) event_log.write(event.render_line());
  };

  const std::uint64_t total = static_cast<std::uint64_t>(spec.cells.size());
  {
    JsonObject event;
    event.add("event", "sweep-start");
    event.add("ts", now_epoch_seconds());
    event.add("sweep", spec.name);
    event.add("cells", total);
    event.add("mode", options.mode);
    if (!options.endpoint.empty()) event.add("endpoint", options.endpoint);
    event.add("chunk", static_cast<std::uint64_t>(options.chunk));
    emit(event);
  }

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  const std::string trace_prefix =
      options.trace_prefix.empty() ? std::string("sw") : options.trace_prefix;
  std::vector<std::pair<std::string, std::uint64_t>> stage_totals_us;
  std::uint64_t done = 0;
  std::size_t chunk_index = 0;

  const auto emit_cell_error = [&](const SweepCell& cell, const std::string& trace_id,
                                   const std::string& error, const std::string& code,
                                   double wall_ms) {
    SweepCellResult result;
    result.cell = cell;
    result.error = error;
    result.code = code;
    result.trace_id = trace_id;
    result.wall_ms = wall_ms;
    out.cells.push_back(result);
    ++out.failed_cells;
    ++done;
    JsonObject event;
    event.add("event", "cell-error");
    event.add("ts", now_epoch_seconds());
    event.add("cell", cell.id);
    event.add("index", static_cast<std::uint64_t>(cell.index));
    event.add("trace_id", trace_id);
    event.add("wall_ms", wall_ms);
    event.add("error", error);
    event.add("code", code);
    emit(event);
  };

  for (std::size_t base = 0; base < spec.cells.size(); base += options.chunk) {
    const std::size_t count = std::min(options.chunk, spec.cells.size() - base);
    const std::string trace_id = trace_prefix + "-" + std::to_string(chunk_index++);

    if (options.progress) {
      render_progress(progress, done, total, out.computed_cells, out.resumed_cells,
                      out.failed_cells,
                      std::chrono::duration<double>(Clock::now() - start).count(),
                      spec.cells[base].experiment);
    }

    JsonObject request;
    request.add("request", "run-batch");
    request.add("origin", "sweep");
    request.add("trace", true);
    request.add("trace_id", trace_id);
    if (options.timeout_ms > 0) request.add("timeout_ms", options.timeout_ms);
    std::string runs = "[";
    for (std::size_t k = 0; k < count; ++k) {
      const SweepCell& cell = spec.cells[base + k];
      {
        JsonObject event;
        event.add("event", "cell-start");
        event.add("ts", now_epoch_seconds());
        event.add("cell", cell.id);
        event.add("index", static_cast<std::uint64_t>(cell.index));
        event.add("experiment", cell.experiment);
        event.add("samples", cell.samples);
        event.add("seed", cell.seed);
        event.add("eval_path", cell.eval_path);
        event.add("trace_id", trace_id);
        emit(event);
      }
      JsonObject run;
      run.add("experiment", cell.experiment);
      run.add("samples", cell.samples);
      run.add("seed", cell.seed);
      // Chain-profile runs must not carry eval_path (the service rejects
      // it); their cells are keyed "scalar" implicitly.
      if (cell.error_rate) run.add("eval_path", cell.eval_path);
      if (k != 0) runs += ", ";
      runs += run.render_line();
    }
    runs += "]";
    request.add_json("runs", runs);

    std::string reply;
    if (std::string error = transport(request.render_line(), reply); !error.empty()) {
      for (std::size_t k = 0; k < count; ++k) {
        emit_cell_error(spec.cells[base + k], trace_id, "transport failure: " + error,
                        "transport", 0.0);
      }
      out.error = "transport failure: " + error;
      break;
    }
    const JsonParse parsed = parse_json(reply);
    if (!parsed.ok() || parsed.value.kind() != JsonValue::Kind::kObject) {
      for (std::size_t k = 0; k < count; ++k) {
        emit_cell_error(spec.cells[base + k], trace_id, "malformed reply", "protocol", 0.0);
      }
      out.error = "malformed run-batch reply";
      break;
    }
    if (read_string_member(parsed.value, "status") != "ok") {
      // A refused chunk (e.g. a draining replica after exhausted retries)
      // fails its cells but not the sweep — later chunks may land elsewhere,
      // and a re-run resumes the survivors from cache.
      const std::string error = read_string_member(parsed.value, "error");
      const std::string code = read_string_member(parsed.value, "code");
      for (std::size_t k = 0; k < count; ++k) {
        emit_cell_error(spec.cells[base + k], trace_id,
                        error.empty() ? "request refused" : error,
                        code.empty() ? "error" : code, 0.0);
      }
      continue;
    }
    const JsonValue* results = parsed.value.find("results");
    if (results == nullptr || results->kind() != JsonValue::Kind::kArray ||
        results->items().size() != count) {
      for (std::size_t k = 0; k < count; ++k) {
        emit_cell_error(spec.cells[base + k], trace_id,
                        "reply 'results' does not match the chunk", "protocol", 0.0);
      }
      out.error = "run-batch reply 'results' does not match the chunk";
      break;
    }

    // Reply spans: the k-th "element" span is the k-th cell's server-side
    // wall time; every non-root span feeds the sweep's stage totals.  Spans
    // are observability only — a malformed array costs the chunk its
    // timings, never its cells.
    std::vector<service::TraceSpan> spans;
    if (!service::parse_spans(parsed.value, spans).empty()) spans.clear();
    std::vector<double> element_ms;
    for (const service::TraceSpan& span : spans) {
      if (span.depth == 0) continue;
      add_stage_us(stage_totals_us, span.name, span.dur_us);
      if (span.name == "element") {
        element_ms.push_back(static_cast<double>(span.dur_us) * 1e-3);
      }
    }

    // Records and profiles are copied from the reply text by their parsed
    // byte ranges — the exact bytes the service rendered, never re-rendered.
    for (std::size_t k = 0; k < count; ++k) {
      const SweepCell& cell = spec.cells[base + k];
      const JsonValue& element = results->items()[k];
      const double wall_ms = k < element_ms.size() ? element_ms[k] : 0.0;
      if (element.kind() != JsonValue::Kind::kObject) {
        emit_cell_error(cell, trace_id, "batch element is not an object", "protocol",
                        wall_ms);
        continue;
      }
      if (read_string_member(element, "status") != "ok") {
        const std::string error = read_string_member(element, "error");
        const std::string code = read_string_member(element, "code");
        emit_cell_error(cell, trace_id, error.empty() ? "cell failed" : error,
                        code.empty() ? "error" : code, wall_ms);
        continue;
      }
      SweepCellResult result;
      result.cell = cell;
      result.ok = true;
      result.cache = read_string_member(element, "cache");
      result.cached = !result.cache.empty() && result.cache != "miss";
      result.trace_id = trace_id;
      result.wall_ms = wall_ms;
      if (const JsonValue* record = element.find("record"); record != nullptr) {
        result.record = record->source(reply);
      }
      const JsonValue* profile = element.find("profile");
      if (profile != nullptr) result.profile = profile->source(reply);
      ++done;
      JsonObject event;
      event.add("event", result.cached ? "cell-cached" : "cell-done");
      event.add("ts", now_epoch_seconds());
      event.add("cell", cell.id);
      event.add("index", static_cast<std::uint64_t>(cell.index));
      event.add("trace_id", trace_id);
      event.add("wall_ms", wall_ms);
      event.add("cache", result.cache);
      event.add("cache_hit", result.cached);
      if (result.cached) {
        ++out.resumed_cells;
      } else {
        ++out.computed_cells;
        if (profile != nullptr) {
          if (const auto parsed_profile = parse_run_profile(*profile)) {
            ++out.profile_totals.cells;
            out.profile_totals.profile += *parsed_profile;
          }
          event.add_json("profile", result.profile);
        }
      }
      emit(event);
      out.cells.push_back(std::move(result));
    }
  }

  out.wall_seconds = std::chrono::duration<double>(Clock::now() - start).count();
  for (const auto& [stage, us] : stage_totals_us) {
    out.stage_totals_ms.emplace_back(stage, static_cast<double>(us) * 1e-3);
  }
  {
    JsonObject event;
    event.add("event", "sweep-done");
    event.add("ts", now_epoch_seconds());
    event.add("sweep", spec.name);
    event.add("status", out.error.empty() ? "ok" : "aborted");
    event.add("cells", total);
    event.add("computed_cells", out.computed_cells);
    event.add("resumed_cells", out.resumed_cells);
    event.add("failed_cells", out.failed_cells);
    event.add("wall_seconds", out.wall_seconds);
    if (!out.error.empty()) event.add("error", out.error);
    emit(event);
  }
  if (options.progress) {
    render_progress(progress, done, total, out.computed_cells, out.resumed_cells,
                    out.failed_cells, out.wall_seconds, "done");
    progress << "\n";
  }
  return out;
}

std::string render_sweep_report(const SweepSpec& spec, const SweepOptions& options,
                                const SweepResult& result) {
  JsonObject report;
  report.add("schema", "vlcsa-sweep-1");
  report.add("sweep", spec.name);
  report.add("status", result.error.empty() ? "ok" : "aborted");
  if (!result.error.empty()) report.add("error", result.error);
  report.add("mode", options.mode);
  if (!options.endpoint.empty()) report.add("endpoint", options.endpoint);
  report.add("chunk", static_cast<std::uint64_t>(options.chunk));
  report.add("cells", static_cast<std::uint64_t>(spec.cells.size()));
  report.add("completed_cells", static_cast<std::uint64_t>(result.cells.size()));
  report.add("computed_cells", result.computed_cells);
  report.add("resumed_cells", result.resumed_cells);
  report.add("failed_cells", result.failed_cells);
  report.add("wall_seconds", result.wall_seconds);
  report.add("cells_per_second",
             result.wall_seconds > 0.0
                 ? static_cast<double>(result.cells.size()) / result.wall_seconds
                 : 0.0);
  {
    JsonObject stages;
    for (const auto& [stage, ms] : result.stage_totals_ms) stages.add(stage, ms);
    report.add_json("stage_totals_ms", stages.render_line());
  }
  {
    const RunProfile& totals = result.profile_totals.profile;
    JsonObject profile;
    profile.add("cells", result.profile_totals.cells);
    profile.add("shards", totals.shards);
    profile.add("samples", totals.samples);
    profile.add("batch_blocks", totals.batch_blocks);
    profile.add("batched_samples", totals.batched_samples);
    profile.add("scalar_samples", totals.scalar_samples);
    profile.add("rng_words", totals.rng_words);
    profile.add("fill_seconds", totals.fill_seconds);
    profile.add("eval_seconds", totals.eval_seconds);
    profile.add("merge_seconds", totals.merge_seconds);
    profile.add("threads_max", totals.threads);
    profile.add("backend", totals.backend);
    report.add_json("profile_totals", profile.render_line());
  }
  std::string cell_records = "[";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const SweepCellResult& cell = result.cells[i];
    JsonObject record;
    record.add("cell", cell.cell.id);
    record.add("index", static_cast<std::uint64_t>(cell.cell.index));
    record.add("experiment", cell.cell.experiment);
    record.add("samples", cell.cell.samples);
    record.add("seed", cell.cell.seed);
    record.add("eval_path", cell.cell.eval_path);
    record.add("status", cell.ok ? "ok" : "error");
    if (!cell.cache.empty()) record.add("cache", cell.cache);
    record.add("cache_hit", cell.cached);
    record.add("wall_ms", cell.wall_ms);
    record.add("trace_id", cell.trace_id);
    if (!cell.record.empty()) record.add_json("record", cell.record);
    if (!cell.profile.empty()) record.add_json("profile", cell.profile);
    if (!cell.error.empty()) {
      record.add("error", cell.error);
      record.add("code", cell.code);
    }
    if (i != 0) cell_records += ", ";
    cell_records += record.render_line();
  }
  cell_records += "]";
  report.add_json("cell_records", cell_records);
  return report.render_line();
}

SweepLogValidation validate_sweep_event_log(std::istream& in) {
  SweepLogValidation out;
  enum class CellState { kStarted, kTerminated };
  std::unordered_map<std::string, CellState> states;
  bool saw_start = false;
  bool saw_done = false;
  std::string done_status;
  std::uint64_t done_cells = 0;
  std::uint64_t done_computed = 0;
  std::uint64_t done_resumed = 0;
  std::uint64_t done_failed = 0;
  std::string line;
  std::size_t line_number = 0;
  const auto fail = [&](const std::string& what) {
    out.error = "line " + std::to_string(line_number) + ": " + what;
  };
  while (out.error.empty() && std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const JsonParse parsed = parse_json(line);
    if (!parsed.ok() || parsed.value.kind() != JsonValue::Kind::kObject) {
      fail("malformed event line");
      break;
    }
    const std::string event = read_string_member(parsed.value, "event");
    if (event.empty()) {
      fail("event line without a string 'event'");
      break;
    }
    if (saw_done) {
      fail("event '" + event + "' after sweep-done");
      break;
    }
    if (!saw_start) {
      if (event != "sweep-start") {
        fail("first event must be sweep-start, got '" + event + "'");
        break;
      }
      saw_start = true;
      const JsonValue* cells = parsed.value.find("cells");
      if (cells == nullptr || !cells->to_u64(out.cells)) {
        fail("sweep-start without a numeric 'cells'");
        break;
      }
      continue;
    }
    if (event == "sweep-start") {
      fail("second sweep-start");
      break;
    }
    if (event == "sweep-done") {
      saw_done = true;
      done_status = read_string_member(parsed.value, "status");
      const auto read = [&](const char* name, std::uint64_t& slot) {
        const JsonValue* field = parsed.value.find(name);
        return field != nullptr && field->to_u64(slot);
      };
      if (!read("cells", done_cells) || !read("computed_cells", done_computed) ||
          !read("resumed_cells", done_resumed) || !read("failed_cells", done_failed)) {
        fail("sweep-done without numeric cell counts");
      }
      continue;
    }
    const std::string cell = read_string_member(parsed.value, "cell");
    if (cell.empty()) {
      fail("event '" + event + "' without a string 'cell'");
      break;
    }
    if (event == "cell-start") {
      if (!states.emplace(cell, CellState::kStarted).second) {
        fail("duplicate cell-start for cell " + cell);
      }
      continue;
    }
    if (event != "cell-done" && event != "cell-cached" && event != "cell-error") {
      fail("unknown event '" + event + "'");
      break;
    }
    const auto it = states.find(cell);
    if (it == states.end()) {
      fail("terminal event '" + event + "' for cell " + cell + " without a cell-start");
      break;
    }
    if (it->second == CellState::kTerminated) {
      fail("second terminal event '" + event + "' for cell " + cell);
      break;
    }
    it->second = CellState::kTerminated;
    if (event == "cell-done") ++out.computed;
    if (event == "cell-cached") ++out.resumed;
    if (event == "cell-error") ++out.failed;
  }
  if (!out.error.empty()) return out;
  if (!saw_start) {
    out.error = "no sweep-start event";
    return out;
  }
  if (!saw_done) {
    out.error = "no sweep-done event";
    return out;
  }
  for (const auto& [cell, state] : states) {
    if (state != CellState::kTerminated) {
      out.error = "cell " + cell + " started but has no terminal event";
      return out;
    }
  }
  if (done_cells != out.cells) {
    out.error = "sweep-done 'cells' disagrees with sweep-start";
    return out;
  }
  if (done_computed != out.computed || done_resumed != out.resumed ||
      done_failed != out.failed) {
    out.error = "sweep-done counts do not reconcile with per-cell terminal events";
    return out;
  }
  if (done_status == "ok" && out.computed + out.resumed + out.failed != out.cells) {
    out.error = "sweep-done says ok but terminal events do not cover every cell";
    return out;
  }
  return out;
}

}  // namespace vlcsa::harness
