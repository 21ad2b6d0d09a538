#pragma once
// Experiment registry: every Monte Carlo experiment the paper's tables and
// figures need, as named (adder variant × width × window × operand
// distribution) configurations.  Bench binaries and the adder_explorer
// example look experiments up here instead of hand-rolling sampling loops;
// new workloads are added by appending a registration, and immediately
// become runnable from every front end.  The registry also defines what an
// experiment's result record is: record_key, encode_key, record_matches_key,
// describe_experiment and run_record below are the one place that resolves,
// encodes, checks and describes a record's identity, and renders its bytes.
//
// Naming convention: "<artifact>/<point>", e.g. "table7.1/n64" or
// "fig6.5/gaussian-twos-complement".  Prefix queries ("table7.1/") return
// all points of one artifact in registration (= presentation) order.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "arith/carry_chain.hpp"
#include "arith/distributions.hpp"
#include "arith/workload.hpp"
#include "harness/montecarlo.hpp"
#include "harness/report.hpp"

namespace vlcsa::harness {

/// Which behavioral model an error-rate experiment drives.
enum class ModelKind {
  kVlcsa1,
  kVlcsa2,
  kVlsa,
};

[[nodiscard]] const char* to_string(ModelKind kind);

/// One error-rate/latency experiment: a variable-latency adder configuration
/// pitted against an operand distribution.
struct ErrorRateExperiment {
  std::string name;
  std::string description;
  ModelKind model = ModelKind::kVlcsa1;
  int width = 64;
  int window = 14;  // SCSA window size k, or VLSA speculative chain length l
  arith::InputDistribution dist = arith::InputDistribution::kUniformUnsigned;
  arith::GaussianParams params;
  std::uint64_t default_samples = 200000;
};

/// Runs an error-rate experiment on the parallel engine (`threads` as in
/// engine.hpp: 0 = all hardware threads, result thread-count-invariant).
/// `path` selects the bit-sliced batch pipeline (default) or the scalar
/// oracle; both produce bit-identical counters (see montecarlo.hpp).
[[nodiscard]] ErrorRateResult run_experiment(const ErrorRateExperiment& experiment,
                                             std::uint64_t samples, std::uint64_t seed,
                                             int threads = 0,
                                             EvalPath path = EvalPath::kBatched);

/// RunOptions variant: same semantics, with the full engine knob set exposed
/// — in particular RunOptions::stop, which the service daemon's per-request
/// deadline and drain use for cooperative cancellation (engine.hpp throws
/// RunCancelled, so a cancelled run never yields a partial result).
[[nodiscard]] ErrorRateResult run_experiment(const ErrorRateExperiment& experiment,
                                             const RunOptions& options,
                                             EvalPath path = EvalPath::kBatched);

/// One carry-chain-statistics experiment (the Figs 6.1–6.5 family): a
/// workload whose additions feed a CarryChainProfiler.
struct ChainProfileExperiment {
  enum class Workload {
    kDistribution,  // one sample = one operand pair from `dist`
    kCrypto,        // one sample = one top-level instrumented crypto op
  };

  std::string name;
  std::string description;
  int width = 32;
  Workload workload = Workload::kDistribution;
  arith::InputDistribution dist = arith::InputDistribution::kUniformUnsigned;
  arith::GaussianParams params;
  arith::CryptoKind crypto_kind = arith::CryptoKind::kRsaLike;
  int crypto_field_bits = 16;
  int crypto_exponent_bits = 24;
  std::uint64_t default_samples = 1000000;
};

[[nodiscard]] arith::CarryChainProfiler run_experiment(
    const ChainProfileExperiment& experiment, std::uint64_t samples, std::uint64_t seed,
    int threads = 0);

/// RunOptions variant (see the error-rate overload above for why).
[[nodiscard]] arith::CarryChainProfiler run_experiment(
    const ChainProfileExperiment& experiment, const RunOptions& options);

/// All registered experiments, in registration order.
[[nodiscard]] const std::vector<ErrorRateExperiment>& error_rate_experiments();
[[nodiscard]] const std::vector<ChainProfileExperiment>& chain_profile_experiments();

/// Exact-name lookup; nullptr when absent.
[[nodiscard]] const ErrorRateExperiment* find_error_rate_experiment(std::string_view name);
[[nodiscard]] const ChainProfileExperiment* find_chain_profile_experiment(
    std::string_view name);

/// All experiments whose name starts with `prefix`, in registration order.
[[nodiscard]] std::vector<const ErrorRateExperiment*> error_rate_experiments_with_prefix(
    std::string_view prefix);
[[nodiscard]] std::vector<const ChainProfileExperiment*> chain_profile_experiments_with_prefix(
    std::string_view prefix);

/// What an experiment's result record is a pure function of: the service's
/// cache key, a sweep cell, and the key fields every record embeds.
struct RecordKey {
  std::string experiment;
  std::uint64_t samples = 0;
  std::uint64_t seed = 1;
  EvalPath path = EvalPath::kBatched;  // always kScalar for chain profiles
  /// The entry's draw-stream version: "gauss-rng-v2" for Gaussian-input
  /// entries, "crypto-rng-v2" for the fig6.2 crypto workloads,
  /// "uniform-plane-v2" for uniform-unsigned entries, "" for streams that
  /// never moved.  Bumped whenever an entry's stream changes
  /// incompatibly, so records from the old stream miss instead of hitting
  /// stale.
  std::string stream_version;
};

/// Why record_key resolved no key; each front end words its own message.
enum class KeyError { kNone, kUnknownExperiment, kEvalPathOnChainProfile };

struct KeyResolution {
  RecordKey key;  // meaningful only when ok()
  KeyError error = KeyError::kNone;
  [[nodiscard]] bool ok() const { return error == KeyError::kNone; }
};

/// Resolves a run of registry entry `name` into its record key: `samples`
/// 0 selects the entry's default, `path` unset the batched path.  Chain
/// profiles have no batched pipeline: they key the scalar path, and an
/// explicit `path` for one is an error.
[[nodiscard]] KeyResolution record_key(std::string_view name, std::uint64_t samples,
                                       std::uint64_t seed,
                                       std::optional<EvalPath> path = std::nullopt);

enum class KeyEncoding {
  kCache,   // "experiment|samples|seed|eval_path[|stream_version]"
  kCellId,  // "experiment|samples|seed|eval_path"
};

/// The key's flat encoding: the service cache's map key (its FNV-1a names
/// the record's file, so it must never change) or a sweep cell id.
[[nodiscard]] std::string encode_key(const RecordKey& key, KeyEncoding encoding);

/// True when `record` is one JSON object whose key fields (experiment,
/// samples, seed, eval_path, and stream_version when the key has one)
/// equal `key`'s: the cache's disk-tier check, so a corrupt, foreign or
/// pre-stream-change file reads as a miss.
[[nodiscard]] bool record_matches_key(const std::string& record, const RecordKey& key);

/// Adds what a describe reply says of entry `name`: the identity fields its
/// records lead with (experiment, kind, model, width, window, distribution;
/// or experiment, kind, width, workload, source for a chain profile), then
/// default_samples and description.  false when no entry has that name.
[[nodiscard]] bool describe_experiment(std::string_view name, JsonObject& out);

/// What run_record produced.
struct RecordRun {
  std::string record;                 // single-line JSON object, no newline
  std::optional<RunProfile> profile;  // set when options.profile was non-null
};

/// Runs the experiment `key` names and renders its result record — the one
/// definition of a record's bytes, shared by the service cache and
/// adder_explorer --json.  The record is a pure function of `key` (no wall
/// time, no thread count), so any `options` reproduce it byte for byte;
/// `options` supplies only the engine knobs (threads, lane_words, stop,
/// profile), while samples and seed come from `key`.  Throws
/// std::invalid_argument when no entry has `key.experiment`.
[[nodiscard]] RecordRun run_record(const RecordKey& key, RunOptions options);

}  // namespace vlcsa::harness
