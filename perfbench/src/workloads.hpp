#pragma once
// The benchmark's workloads and their fixed inputs.  Every input (run
// seeds, request keys, sweep seeds) is derived from the workload seed, so
// the same seed replays the same work.  README.md in this directory says
// why each workload exists and which layers it stresses or bypasses.

#include <cstdint>
#include <string>
#include <vector>

#include "util.hpp"

namespace perfbench {

/// One `run` request key served by the daemon (svc-hit) or probed in-process.
struct RunKey {
  std::string experiment;
  std::uint64_t samples = 0;
  std::uint64_t seed = 1;
};

/// The protocol line for a `run` request.
[[nodiscard]] std::string run_line(const RunKey& key);

/// The Monte Carlo experiment a workload drives (mc-*), or the one its
/// layer probes use (svc-hit, sweep-*: the first error-rate experiment it
/// touches).
[[nodiscard]] std::string engine_experiment(const std::string& workload);

/// svc-hit's key pool: fewer distinct keys than the daemon's memory tier
/// holds, mixing error-rate and chain-profile records.
[[nodiscard]] std::vector<RunKey> svc_key_pool(std::uint64_t seed, bool tiny);

/// The sweep spec text for sweep-cold / sweep-warm pass `pass`.
[[nodiscard]] std::string sweep_spec(std::uint64_t seed, std::uint64_t pass, bool tiny);

/// The `run` keys a sweep spec expands to (parse_sweep_spec's cells).
[[nodiscard]] std::vector<RunKey> sweep_keys(const std::string& spec_text);

/// The daemon command line svc-hit runs, as OPERATIONS.md describes for
/// production: disk cache, trace and access logs on, one engine thread per
/// run, two connection workers.  Paths are relative to the work dir.
[[nodiscard]] std::vector<std::string> daemon_argv(const std::string& bin_dir,
                                                   const std::string& cache_dir);

/// One vlcsa_serve daemon (svc.cpp) started with daemon_argv in its own
/// directory; stopped (shutdown request, then signals) by stop() or the
/// destructor.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns the daemon in `dir` (created fresh) and waits until it accepts.
  void start(const std::string& bin_dir, const std::string& dir);
  /// Sends one `run` line per key and returns each reply's record bytes;
  /// a non-ok reply is a failed op.
  [[nodiscard]] std::vector<std::string> warm(const std::vector<std::string>& lines,
                                              Outcome& out);
  [[nodiscard]] std::string socket_path() const { return dir_ + "/svc.sock"; }
  [[nodiscard]] int pid() const { return child_.pid(); }
  void stop();

 private:
  std::string dir_;
  Child child_;
};

/// A closed loop of `connections` clients, each sending its next `run`
/// line (chosen from `lines` by a seeded stream) only after the previous
/// reply.  Every reply must be ok, a memory-tier hit (or coalesced onto a
/// concurrent one), and embed the expected record bytes; each miss is a
/// failed op.  With `spans` set, a span is kept per request.
struct LoopResult {
  std::vector<double> latencies_s;
  std::vector<double> calibration;  // calibration_s() samples between requests
  double wall_s = 0.0;
};
[[nodiscard]] LoopResult closed_loop(const std::string& socket_path,
                                     const std::vector<std::string>& lines,
                                     const std::vector<std::string>& records, double seconds,
                                     int connections, std::uint64_t seed, Outcome& out,
                                     SpanLog* spans = nullptr);

/// One vlcsa_sweep pass (sweep.cpp) in `dir` (spec.json, cache/,
/// report.json, events.jsonl).  The wall time covers the process from spawn
/// to exit; the checks after it (exit status, zero cell-error, computed or
/// resumed cell counts, event log through `vlcsa_sweep --validate`) are not
/// timed.  Every cell is an op; each violation is a failed op.
struct PassResult {
  double wall_s = 0.0;
  double max_rss_mb = 0.0;
  std::uint64_t cells = 0;
  std::vector<std::string> records;  // per cell, expansion order
};
enum class PassKind { kCold, kWarm };
/// Creates `dir` holding spec.json and an empty cache/ (expanding the spec
/// once) — a sweep's set-up.
void prepare_sweep_dir(const std::string& dir, const std::string& spec_text);
[[nodiscard]] PassResult sweep_pass(const Args& args, const std::string& dir, PassKind kind,
                                    Outcome& out);

/// The records an in-process ExperimentService renders for `keys` — the
/// reference a sweep's records must match byte for byte.
[[nodiscard]] std::vector<std::string> reference_records(const std::vector<RunKey>& keys);

/// The vlcsa_sweep in-process command line for one pass.
[[nodiscard]] std::vector<std::string> sweep_argv(const std::string& bin_dir,
                                                  const std::string& spec_path,
                                                  const std::string& cache_dir,
                                                  const std::string& report_path,
                                                  const std::string& event_log_path);

/// The record's cache `stream_version` for an experiment ("none" when the
/// family is unversioned), read from a record the service renders.
[[nodiscard]] std::string stream_version_of(const std::string& experiment);

[[nodiscard]] bool is_mc(const std::string& workload);
[[nodiscard]] bool is_sweep(const std::string& workload);

// Untraced end-to-end runs: fill `out` with every end-to-end metric.
void run_mc(const Args& args, Outcome& out);
void run_svc(const Args& args, Outcome& out);
void run_sweep(const Args& args, Outcome& out);

/// What the engine-layer replica loop measured (layers.cpp), which the mc
/// workloads' reconciliation needs.
struct EngineSummary {
  double replica_ns_per_sample = 0.0;    // traced replica, wall
  double reference_ns_per_sample = 0.0;  // untraced run_experiment, same seeds
  double span_share = 0.0;               // timed spans / replica wall
};

// Traced runs: every per-layer metric (layers.cpp), then the workload's own
// traced slice, which adds trace_overhead and residual_share.
[[nodiscard]] EngineSummary run_layers(const Args& args, SpanLog& spans, Outcome& out);
void trace_mc(const EngineSummary& engine, Outcome& out);
void trace_svc(const Args& args, SpanLog& spans, Outcome& out);
void trace_sweep(const Args& args, SpanLog& spans, Outcome& out);

/// The engine-layer replica (mc.cpp): runs `samples` samples of `experiment`
/// through make_shard_rng -> clone -> fill_batch -> step_batch ->
/// accumulate_vlcsa_batch (+ scalar tail) with a span around each call, and
/// compares the merged counters with harness::run_experiment for the same
/// seed; a mismatch is a failed op.
struct ReplicaTimes {
  double wall_s = 0.0;
  double shard_setup_s = 0.0;
  double fill_s = 0.0;
  double step_s = 0.0;
  double fold_s = 0.0;
  double tail_s = 0.0;
  double reference_s = 0.0;  // the untraced run_experiment call it is checked against
  std::uint64_t shards = 0;
  std::uint64_t batched_samples = 0;
};
void replica_run(const std::string& experiment, std::uint64_t samples, std::uint64_t seed,
                 SpanLog& spans, ReplicaTimes& times, Outcome& out);

}  // namespace perfbench
