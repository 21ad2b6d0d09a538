#pragma once
// Monte Carlo experiment engine: runs operand streams through the behavioral
// models and aggregates the error/latency statistics the paper's tables
// report.  All runs are reproducible from a seed.
//
// Terminology (kept deliberately explicit because the paper conflates two
// notions under "error rate"):
//  * actual error   — the speculative result (including carry-out) differs
//                     from the exact sum;
//  * nominal error  — the detection logic flags (ERR for VLCSA 1, ERR0&ERR1
//                     for VLCSA 2); this is the *stall* rate and is what
//                     eq. (3.13) models.  Detection overestimates, so
//                     nominal >= actual always (a tested invariant).

#include <cstdint>
#include <random>
#include <string_view>

#include "arith/carry_chain.hpp"
#include "arith/distributions.hpp"
#include "harness/engine.hpp"
#include "speculative/scsa.hpp"
#include "speculative/vlcsa.hpp"
#include "speculative/vlsa.hpp"

namespace vlcsa::harness {

using arith::OperandSource;

/// How an experiment pushes samples through the behavioral model.
///  * kBatched — bit-sliced: 64 * lane_words samples per model pass, with
///    the plane arrays streamed through the dispatched planeops backend
///    (a shard size not divisible by the batch size ends in one narrower
///    batch whose unused lanes are masked out of the counters);
///  * kScalar  — one sample at a time (the original path, kept as the
///    differential-testing oracle).
/// Both produce bit-identical ErrorRateResult counters at any thread count,
/// lane width, and planeops backend — tested invariants.
enum class EvalPath {
  kBatched,
  kScalar,
};

[[nodiscard]] const char* to_string(EvalPath path);

/// Inverse of to_string(EvalPath) ("batched"/"scalar" — the spelling the
/// service protocol and cache keys use).  Returns false on unknown text
/// without touching `out`.
[[nodiscard]] bool parse_eval_path(std::string_view text, EvalPath& out);

struct ErrorRateResult {
  std::uint64_t samples = 0;
  std::uint64_t actual_errors = 0;      // primary speculative result wrong
  std::uint64_t nominal_errors = 0;     // detection flagged (stall)
  std::uint64_t false_negatives = 0;    // wrong but not flagged (must be 0)
  std::uint64_t either_wrong = 0;       // VLCSA 2: neither S*,0 nor S*,1 exact
  std::uint64_t emitted_wrong = 0;      // final emitted result wrong (must be 0)
  std::uint64_t total_cycles = 0;

  /// Shard-merge for the parallel engine: plain counter addition, so merging
  /// is exact and order-independent in value (the engine still merges in
  /// shard order for a fixed, documented reduction).
  ErrorRateResult& operator+=(const ErrorRateResult& other) {
    samples += other.samples;
    actual_errors += other.actual_errors;
    nominal_errors += other.nominal_errors;
    false_negatives += other.false_negatives;
    either_wrong += other.either_wrong;
    emitted_wrong += other.emitted_wrong;
    total_cycles += other.total_cycles;
    return *this;
  }

  /// Counter-exact comparison — what the batch-vs-scalar differential tests
  /// and the thread-count-invariance tests assert.
  [[nodiscard]] friend bool operator==(const ErrorRateResult&, const ErrorRateResult&) = default;

  [[nodiscard]] double actual_rate() const {
    return samples == 0 ? 0.0
                        : static_cast<double>(actual_errors) / static_cast<double>(samples);
  }
  [[nodiscard]] double nominal_rate() const {
    return samples == 0 ? 0.0
                        : static_cast<double>(nominal_errors) / static_cast<double>(samples);
  }
  [[nodiscard]] double either_wrong_rate() const {
    return samples == 0 ? 0.0
                        : static_cast<double>(either_wrong) / static_cast<double>(samples);
  }
  /// Eq. (5.2)/(6.1) measured directly.
  [[nodiscard]] double average_cycles() const {
    return samples == 0 ? 0.0
                        : static_cast<double>(total_cycles) / static_cast<double>(samples);
  }
};

/// Wilson score interval for a binomial proportion: the rates p for which
/// `successes` of `trials` lies within `z` standard deviations.  Unlike a
/// normal-approximation band it stays honest at rates near 0, where the
/// paper's 0.01% design points live, so it is the one statistical bound the
/// tests hold Monte Carlo rates to.
struct WilsonInterval {
  double lo = 0.0;
  double hi = 1.0;
  [[nodiscard]] bool contains(double p) const { return p >= lo && p <= hi; }
};

/// The z-sigma Wilson interval of successes / trials ([0, 1] for no trials).
[[nodiscard]] WilsonInterval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                                             double z);

/// Folds one VLCSA step into the accumulator — the single per-sample kernel
/// every VLCSA experiment (registry, benches, window search) shares.
void accumulate_vlcsa(const spec::VlcsaStep& step, spec::ScsaVariant variant,
                      ErrorRateResult& out);

/// Folds one whole bit-sliced VLCSA batch (64 * lane_words steps) at once:
/// each counter advances by the popcount of the corresponding lane-mask
/// group, so the totals match 64 * lane_words scalar accumulate_vlcsa calls
/// exactly.
void accumulate_vlcsa_batch(const spec::VlcsaBatchStep& step, spec::ScsaVariant variant,
                            ErrorRateResult& out);

/// Folds only the first `valid_lanes` lanes of a batch (a shard's masked
/// last batch): lanes at or past it move no counter.
void accumulate_vlcsa_batch(const spec::VlcsaBatchStep& step, spec::ScsaVariant variant,
                            ErrorRateResult& out, std::uint64_t valid_lanes);

/// Runs `options.samples` additions of a VLCSA configuration over an operand
/// source on the sharded engine.  The result is bit-identical for any thread
/// count AND either EvalPath (see engine.hpp and EvalPath); `source` itself
/// is never drawn from — each shard draws from a fresh clone.
[[nodiscard]] ErrorRateResult run_vlcsa(const spec::VlcsaConfig& config, OperandSource& source,
                                        const RunOptions& options,
                                        EvalPath path = EvalPath::kBatched);

/// Convenience overload with the default shard size.
[[nodiscard]] ErrorRateResult run_vlcsa(const spec::VlcsaConfig& config, OperandSource& source,
                                        std::uint64_t samples, std::uint64_t seed,
                                        int threads = 0, EvalPath path = EvalPath::kBatched);

/// Runs the VLSA baseline the same way.
[[nodiscard]] ErrorRateResult run_vlsa(const spec::VlsaConfig& config, OperandSource& source,
                                       const RunOptions& options,
                                       EvalPath path = EvalPath::kBatched);

[[nodiscard]] ErrorRateResult run_vlsa(const spec::VlsaConfig& config, OperandSource& source,
                                       std::uint64_t samples, std::uint64_t seed,
                                       int threads = 0, EvalPath path = EvalPath::kBatched);

/// Runs `options.samples` additions over an operand source through the same
/// batched loop and profiles their carry chains (ChainMetric::kAllChains) —
/// the Figs 6.1-6.5 distribution workloads.  The histogram is bit-identical
/// to recording each sample's next() pair with CarryChainProfiler::record,
/// at any thread count, lane width and planeops backend.
[[nodiscard]] arith::CarryChainProfiler run_chain_profile(OperandSource& source,
                                                          const RunOptions& options);

/// Finds the smallest window size whose *nominal* (stall) rate over the given
/// distribution stays within slack * target — the simulation-driven sizing
/// the paper uses for VLCSA 2 (Table 7.5).  Search range: [k_lo, k_hi].
struct EmpiricalWindowSearch {
  int window = 0;
  ErrorRateResult result;  // stats at the chosen window
};
[[nodiscard]] EmpiricalWindowSearch find_window_for_nominal_rate(
    int width, spec::ScsaVariant variant, arith::InputDistribution dist,
    arith::GaussianParams params, double target, double slack, std::uint64_t samples,
    std::uint64_t seed, int k_lo = 4, int k_hi = 32, int threads = 0);

}  // namespace vlcsa::harness
