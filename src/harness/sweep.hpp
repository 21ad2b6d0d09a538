#pragma once
// Sweep orchestration: the grid runner every comparison-table campaign goes
// through (the paper's Table 7.x / Fig 7.x grids, and any new adder family's
// rows once they join the registry).
//
// A sweep is declared as one JSON spec: which experiments (exact names or
// "prefix/" selections from the registry), crossed with explicit samples
// and seeds axes.  parse_sweep_spec expands the spec into a deterministic
// cell list — same spec, same cells, same order, same ids — which is what
// makes a sweep resumable by construction: every cell is a registry record
// key (harness::record_key), so re-running the same spec against a warm
// cache answers prior work as cache hits and only computes the frontier.
//
// run_sweep executes the cells through an injected transport (one
// request-line/reply-line roundtrip — the vlcsa_sweep front end wires it to
// an in-process ExperimentService or a daemon via ServiceClient), batching
// cells into "run-batch" chunks stamped with "origin": "sweep" and
// "trace": true so every reply carries the spans and per-cell RunProfile the
// observability rollups are built from.  Instrumentation is first-class:
//   - a line-atomic JSONL event log (JsonlLog) with one sweep-start line,
//     one cell-start and exactly one terminal (cell-done / cell-cached /
//     cell-error) per cell, and one closing sweep-done summary whose counts
//     reconcile with the per-cell events (validate_sweep_event_log checks
//     both properties — the CI sweep smoke gates on it);
//   - a live progress line (done/cached/failed, cells/s, ETA at that rate);
//   - a vlcsa-sweep-1 JSON report (render_sweep_report) with per-cell
//     records plus aggregate stage and profile totals, mirroring the
//     loadgen report idiom.
//
// Determinism contract: everything here is orchestration + observability.
// Cell result records are copied out of each reply by their parsed byte
// ranges (JsonValue::source) — verbatim from the service/cache layer, never
// re-rendered or modified — wall times, spans and profiles live only in the
// event log and report, exactly like trace data in reply envelopes.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "harness/engine.hpp"

namespace vlcsa::harness {

/// One expanded grid cell: a fully resolved (experiment, samples, seed,
/// eval_path) point, in deterministic expansion order.
struct SweepCell {
  std::string id;          // encode_key(key, KeyEncoding::kCellId)
  std::size_t index = 0;   // position in expansion order
  std::string experiment;
  std::uint64_t samples = 0;  // resolved against the experiment default
  std::uint64_t seed = 1;
  std::string eval_path;   // "batched"/"scalar"; chain-profile cells are "scalar"
  bool error_rate = false; // family: whether eval_path is sent to the service
};

/// A parsed, validated, fully expanded sweep.
struct SweepSpec {
  std::string name;              // "name" field; defaults to "sweep"
  std::vector<SweepCell> cells;  // expansion order = experiments × samples × seeds
};

struct SweepSpecParse {
  SweepSpec spec;
  std::string error;  // "" = parsed and expanded

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Parses one sweep spec (strict, json.hpp): unknown fields, empty or
/// duplicate axis values, selections matching no experiment, and eval_path
/// applied to chain-profile experiments are all errors.  A sub-grid is an
/// explicit list of registry names.  Spec shape:
///
///   {"name": STR?, "experiments": [NAME-or-"prefix/", ...],
///    "samples": [INT, ...]?,                // default: experiment default
///    "seeds": [INT, ...]?,                  // default: [1]
///    "eval_path": "batched"|"scalar"?}      // error-rate cells only
[[nodiscard]] SweepSpecParse parse_sweep_spec(const std::string& text);

/// One request-line → reply-line roundtrip; returns "" on success, else a
/// transport error.  The sweep runner is transport-agnostic: vlcsa_sweep
/// wires this to an owned in-process ExperimentService::handle_line or to
/// a daemon ServiceClient::roundtrip, whose ClientOptions carry the
/// endpoint and the retry budget per chunk.
using SweepTransport =
    std::function<std::string(const std::string& request_line, std::string& reply_line)>;

struct SweepOptions {
  std::size_t chunk = 16;          // cells per run-batch request (>= 1)
  std::uint64_t timeout_ms = 0;    // per-chunk "timeout_ms"; 0 = server default
  bool progress = true;            // live progress line on *progress_out
  std::string mode = "in-process"; // reported only ("in-process"/"daemon")
  std::string endpoint;            // reported only (socket path / host:port)
  std::string event_log_path;      // JSONL event log; empty = off
  std::uint64_t event_log_max_bytes = 0;  // JsonlLog rotation cap; 0 = unbounded
  std::string trace_prefix;        // per-chunk trace-id prefix; default "sw"
  std::ostream* progress_out = nullptr;  // default std::cerr
};

/// What one cell produced.
struct SweepCellResult {
  SweepCell cell;
  bool ok = false;
  bool cached = false;     // cache tier was not "miss" (resumed / coalesced work)
  std::string cache;       // hit-memory / hit-disk / coalesced / miss
  std::string record;      // the verbatim result record (ok cells)
  std::string profile;     // rendered RunProfile (computed cells)
  std::string error;       // error text (failed cells)
  std::string code;        // machine-readable error code (failed cells)
  std::string trace_id;    // the chunk's trace id
  double wall_ms = 0.0;    // this cell's "element" span duration
};

/// RunProfile rollup: the += of every computed cell's profile that
/// parse_run_profile accepted (threads is the max, backend the last seen).
struct SweepProfileTotals {
  std::uint64_t cells = 0;  // cells whose profile was counted
  RunProfile profile;
};

struct SweepResult {
  std::string error;  // "" = the sweep ran to completion (cells may still fail)
  std::vector<SweepCellResult> cells;  // one entry per cell that got a terminal
  std::uint64_t computed_cells = 0;  // cache "miss": the engine actually ran
  std::uint64_t resumed_cells = 0;   // cache hit: prior work answered the cell
  std::uint64_t failed_cells = 0;
  double wall_seconds = 0.0;
  // Sum of every reply span (depth >= 1) by stage name, milliseconds —
  // where the sweep's server-side time went.
  std::vector<std::pair<std::string, double>> stage_totals_ms;
  SweepProfileTotals profile_totals;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Runs every cell of `spec` through `transport` in expansion order,
/// chunked into run-batch requests, writing the event log and progress as
/// configured.  A transport failure aborts the sweep (the affected chunk's
/// cells terminate as cell-error; later cells get no events); per-cell
/// errors are recorded and the sweep continues.
[[nodiscard]] SweepResult run_sweep(const SweepSpec& spec, const SweepOptions& options,
                                    const SweepTransport& transport);

/// Renders the vlcsa-sweep-1 report object (one JSON line): sweep identity
/// and mode, cell accounting, per-cell records, aggregate stage totals and
/// the RunProfile rollup.  DESIGN.md documents the schema.
[[nodiscard]] std::string render_sweep_report(const SweepSpec& spec,
                                              const SweepOptions& options,
                                              const SweepResult& result);

/// What validate_sweep_event_log found.
struct SweepLogValidation {
  std::string error;  // "" = the log is well-formed
  std::uint64_t cells = 0;     // planned cells (sweep-start)
  std::uint64_t computed = 0;  // cell-done terminals
  std::uint64_t resumed = 0;   // cell-cached terminals
  std::uint64_t failed = 0;    // cell-error terminals

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Validates one sweep event log: exactly one sweep-start (first) and one
/// sweep-done (last); every cell-start followed by exactly one terminal
/// event for that cell id; no terminal without a start; and a sweep-done
/// summary whose computed/resumed/failed counts reconcile with the per-cell
/// terminals (and sum to the planned cell count when the sweep completed).
[[nodiscard]] SweepLogValidation validate_sweep_event_log(std::istream& in);

}  // namespace vlcsa::harness
