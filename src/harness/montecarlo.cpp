#include "harness/montecarlo.hpp"

#include <bit>
#include <chrono>
#include <cmath>

#include "harness/engine.hpp"

namespace vlcsa::harness {

namespace {

inline std::uint64_t lanes(std::uint64_t mask) {
  return static_cast<std::uint64_t>(std::popcount(mask));
}

/// Lanes of plane word `w` that fall before `valid`: all 64 for a word of a
/// full batch, the low bits for the word that straddles a masked batch's
/// end, none past it.
std::uint64_t valid_mask(int w, std::uint64_t valid) {
  const std::uint64_t first = static_cast<std::uint64_t>(arith::kBatchLanes) * w;
  if (valid >= first + arith::kBatchLanes) return ~std::uint64_t{0};
  if (valid <= first) return 0;
  return (std::uint64_t{1} << (valid - first)) - 1;
}

/// Folds one VLSA evaluation (actual = spec wrong, nominal = ERR).
void accumulate_vlsa(const spec::VlsaEvaluation& ev, ErrorRateResult& out) {
  const bool wrong = !ev.spec_correct();
  ++out.samples;
  if (wrong) ++out.actual_errors;
  if (ev.err) ++out.nominal_errors;
  if (wrong && !ev.err) ++out.false_negatives;
  if (wrong) ++out.either_wrong;
  // Recovery is exact: emitted result is spec when !err else recovered.
  if (wrong && !ev.err) ++out.emitted_wrong;
  out.total_cycles += ev.err ? 2 : 1;
}

/// Folds the first `valid_lanes` lanes of a VLSA batch the same way.
void accumulate_vlsa_batch(const spec::VlsaBatchEvaluation& ev, ErrorRateResult& out,
                           std::uint64_t valid_lanes) {
  std::uint64_t errs = 0;
  for (int w = 0; w < ev.lane_words(); ++w) {
    const std::size_t ws = static_cast<std::size_t>(w);
    const std::uint64_t valid = valid_mask(w, valid_lanes);
    const std::uint64_t err = ev.err[ws] & valid;
    const std::uint64_t wrong = ev.spec_wrong[ws] & valid;
    errs += lanes(err);
    out.actual_errors += lanes(wrong);
    out.false_negatives += lanes(wrong & ~err);
    out.either_wrong += lanes(wrong);
    out.emitted_wrong += lanes(wrong & ~err);
  }
  out.samples += valid_lanes;
  out.nominal_errors += errs;
  out.total_cycles += valid_lanes + errs;
}

}  // namespace

const char* to_string(EvalPath path) {
  switch (path) {
    case EvalPath::kBatched: return "batched";
    case EvalPath::kScalar: return "scalar";
  }
  return "?";
}

bool parse_eval_path(std::string_view text, EvalPath& out) {
  for (const EvalPath path : {EvalPath::kBatched, EvalPath::kScalar}) {
    if (text == to_string(path)) {
      out = path;
      return true;
    }
  }
  return false;
}

WilsonInterval wilson_interval(std::uint64_t successes, std::uint64_t trials, double z) {
  if (trials == 0) return {};
  const double n = static_cast<double>(trials);
  const double x = static_cast<double>(successes);
  const double z2 = z * z;
  const double center = (x + z2 / 2) / (n + z2);
  const double half = z / (n + z2) * std::sqrt(x * (n - x) / n + z2 / 4);
  return {center - half, center + half};
}

void accumulate_vlcsa(const spec::VlcsaStep& step, spec::ScsaVariant variant,
                      ErrorRateResult& out) {
  const auto& ev = step.eval;
  const bool primary_wrong = variant == spec::ScsaVariant::kScsa1 ? !ev.spec0_correct()
                                                                  : !ev.either_correct();
  ++out.samples;
  if (primary_wrong) ++out.actual_errors;
  if (step.stalled) ++out.nominal_errors;
  if (primary_wrong && !step.stalled) ++out.false_negatives;
  if (!ev.either_correct()) ++out.either_wrong;
  if (step.result != ev.exact || step.cout != ev.exact_cout) ++out.emitted_wrong;
  out.total_cycles += static_cast<std::uint64_t>(step.cycles);
}

void accumulate_vlcsa_batch(const spec::VlcsaBatchStep& step, spec::ScsaVariant variant,
                            ErrorRateResult& out) {
  accumulate_vlcsa_batch(step, variant, out,
                         static_cast<std::uint64_t>(arith::kBatchLanes) * step.lane_words());
}

void accumulate_vlcsa_batch(const spec::VlcsaBatchStep& step, spec::ScsaVariant variant,
                            ErrorRateResult& out, std::uint64_t valid_lanes) {
  const auto& ev = step.eval;
  std::uint64_t stalls = 0;
  for (int w = 0; w < step.lane_words(); ++w) {
    const std::size_t ws = static_cast<std::size_t>(w);
    const std::uint64_t valid = valid_mask(w, valid_lanes);
    const std::uint64_t stalled = step.stalled[ws] & valid;
    const std::uint64_t primary_wrong =
        (variant == spec::ScsaVariant::kScsa1 ? ev.spec0_wrong[ws] : ev.either_wrong(w)) & valid;
    stalls += lanes(stalled);
    out.actual_errors += lanes(primary_wrong);
    out.false_negatives += lanes(primary_wrong & ~stalled);
    out.either_wrong += lanes(ev.either_wrong(w) & valid);
    out.emitted_wrong += lanes(step.emitted_wrong[ws] & valid);
  }
  out.samples += valid_lanes;
  out.nominal_errors += stalls;
  // 1 cycle per lane + 1 extra per stall (eq. 5.2/6.1).
  out.total_cycles += valid_lanes + stalls;
}

namespace {

/// The families the batched loop drives.  Each folds the first `valid`
/// lanes of one bit-sliced batch into its accumulator (`empty()` makes an
/// empty one); `Scratch` is the per-shard batch output buffer.  The model
/// families also fold one operand pair into ErrorRateResult counters (the
/// scalar oracle run_model's kScalar path runs).
class VlcsaFolds {
 public:
  using Scratch = spec::VlcsaBatchStep;
  explicit VlcsaFolds(const spec::VlcsaConfig& config)
      : model_(config), variant_(config.variant) {}

  [[nodiscard]] ErrorRateResult empty() const { return {}; }

  void sample(const arith::ApInt& a, const arith::ApInt& b, ErrorRateResult& out) const {
    accumulate_vlcsa(model_.step(a, b), variant_, out);
  }
  void batch(const arith::BitSlicedBatch& in, std::uint64_t valid, Scratch& step,
             ErrorRateResult& out) const {
    model_.step_batch(in, step);
    accumulate_vlcsa_batch(step, variant_, out, valid);
  }

 private:
  spec::VlcsaModel model_;
  spec::ScsaVariant variant_;
};

class VlsaFolds {
 public:
  using Scratch = spec::VlsaBatchEvaluation;
  explicit VlsaFolds(const spec::VlsaConfig& config) : model_(config) {}

  [[nodiscard]] ErrorRateResult empty() const { return {}; }

  void sample(const arith::ApInt& a, const arith::ApInt& b, ErrorRateResult& out) const {
    accumulate_vlsa(model_.evaluate(a, b), out);
  }
  void batch(const arith::BitSlicedBatch& in, std::uint64_t valid, Scratch& ev,
             ErrorRateResult& out) const {
    model_.evaluate_batch(in, ev);
    accumulate_vlsa_batch(ev, out, valid);
  }

 private:
  spec::VlsaModel model_;
};

/// Carry-chain profiles: the batch's chain histogram.  No scalar fold:
/// CarryChainProfiler::record is the oracle record_batch is tested against.
class ChainFolds {
 public:
  struct Scratch {};
  explicit ChainFolds(int width) : width_(width) {}

  [[nodiscard]] arith::CarryChainProfiler empty() const {
    return arith::CarryChainProfiler(width_, arith::ChainMetric::kAllChains);
  }
  void batch(const arith::BitSlicedBatch& in, std::uint64_t valid, Scratch& /*unused*/,
             arith::CarryChainProfiler& out) const {
    out.record_batch(in, valid);
  }

 private:
  int width_;
};

/// batch_loop's compile-time timing policies.  NoTimer's calls compile to
/// nothing, so the default loop has no clock reads and no per-block branch;
/// BlockTimer times each block's fill and eval stages into a shard-local
/// RunProfile and publishes it to the run's RunProfileCollector once, at
/// finish.  One instance per shard.
struct NoTimer {
  explicit NoTimer(RunProfileCollector* /*profile*/) {}
  void start() {}
  void filled() {}
  void evaluated() {}
  void finish(std::uint64_t /*count*/) {}
};

class BlockTimer {
 public:
  explicit BlockTimer(RunProfileCollector* profile) : profile_(profile) {}
  void start() { fill_start_ = Clock::now(); }
  void filled() { eval_start_ = Clock::now(); }
  void evaluated() {
    const auto eval_end = Clock::now();
    shard_.fill_seconds += Seconds(eval_start_ - fill_start_).count();
    shard_.eval_seconds += Seconds(eval_end - eval_start_).count();
    ++shard_.batch_blocks;
  }
  /// All of the shard's `count` samples went through the batch loop.
  void finish(std::uint64_t count) {
    shard_.batched_samples = count;
    profile_->add(shard_);
  }

 private:
  using Clock = std::chrono::steady_clock;
  using Seconds = std::chrono::duration<double>;

  RunProfileCollector* profile_;
  RunProfile shard_;
  Clock::time_point fill_start_;
  Clock::time_point eval_start_;
};

/// The batched sampling loop, once for every family: per shard, fill and
/// fold whole batches of 64 * lane_words samples, then one last batch of
/// ceil(rest / 64) lane words whose lanes past `rest` are masked out of
/// every counter.  Every sample goes through the batched kernel, and the
/// shard draws the source's whole draw units covering ceil(count / 64)
/// groups (ceil(count / 512) superblocks for the uniform source) — the
/// scalar path's draws.
template <typename Timer, typename Folds>
auto batch_loop(const Folds& folds, int width, int lane_words, OperandSource& source,
                const RunOptions& options) {
  using Accumulator = decltype(folds.empty());
  return run_sharded_blocks(options, [&folds] { return folds.empty(); }, [&] {
    return [&folds, width, shard_source = source.clone(),
            batch = arith::BitSlicedBatch(width, lane_words), scratch = typename Folds::Scratch{},
            profile = options.profile](arith::BlockRng& rng, Accumulator& out,
                                       std::uint64_t count) mutable {
      Timer timer(profile);
      const auto fold = [&](arith::BitSlicedBatch& in, std::uint64_t valid) {
        timer.start();
        shard_source->fill_batch(rng, in);
        timer.filled();
        folds.batch(in, valid, scratch, out);
        timer.evaluated();
      };
      const std::uint64_t batch_lanes = static_cast<std::uint64_t>(batch.lanes());
      std::uint64_t done = 0;
      for (; done + batch_lanes <= count; done += batch_lanes) fold(batch, batch_lanes);
      if (const std::uint64_t rest = count - done; rest > 0) {
        const auto groups = (rest + arith::kBatchLanes - 1) / arith::kBatchLanes;
        arith::BitSlicedBatch last(width, static_cast<int>(groups));
        fold(last, rest);
      }
      timer.finish(count);
    };
  });
}

/// batch_loop at the run's lane width, timed per block when the run is
/// profiled.
template <typename Folds>
auto run_batched(const Folds& folds, int width, OperandSource& source,
                 const RunOptions& options) {
  const int lane_words = options.lane_words > 0 ? options.lane_words : arith::default_lane_words();
  if (options.profile == nullptr) {
    return batch_loop<NoTimer>(folds, width, lane_words, source, options);
  }
  RunProfile lanes;
  lanes.lane_words = lane_words;
  options.profile->add(lanes);
  return batch_loop<BlockTimer>(folds, width, lane_words, source, options);
}

template <typename Folds>
ErrorRateResult run_model(const Folds& folds, int width, OperandSource& source,
                          const RunOptions& options, EvalPath path) {
  if (path == EvalPath::kScalar) {
    return run_sharded(options, [] { return ErrorRateResult{}; }, [&] {
      return [&folds, shard_source = source.clone()](arith::BlockRng& rng, ErrorRateResult& out) {
        const auto [a, b] = shard_source->next(rng);
        folds.sample(a, b, out);
      };
    });
  }
  return run_batched(folds, width, source, options);
}

}  // namespace

ErrorRateResult run_vlcsa(const spec::VlcsaConfig& config, OperandSource& source,
                          const RunOptions& options, EvalPath path) {
  return run_model(VlcsaFolds(config), config.width, source, options, path);
}

ErrorRateResult run_vlcsa(const spec::VlcsaConfig& config, OperandSource& source,
                          std::uint64_t samples, std::uint64_t seed, int threads,
                          EvalPath path) {
  return run_vlcsa(config, source, RunOptions{samples, seed, threads, kDefaultShardSize},
                   path);
}

ErrorRateResult run_vlsa(const spec::VlsaConfig& config, OperandSource& source,
                         const RunOptions& options, EvalPath path) {
  return run_model(VlsaFolds(config), config.width, source, options, path);
}

ErrorRateResult run_vlsa(const spec::VlsaConfig& config, OperandSource& source,
                         std::uint64_t samples, std::uint64_t seed, int threads,
                         EvalPath path) {
  return run_vlsa(config, source, RunOptions{samples, seed, threads, kDefaultShardSize}, path);
}

arith::CarryChainProfiler run_chain_profile(OperandSource& source, const RunOptions& options) {
  return run_batched(ChainFolds(source.width()), source.width(), source, options);
}

EmpiricalWindowSearch find_window_for_nominal_rate(int width, spec::ScsaVariant variant,
                                                   arith::InputDistribution dist,
                                                   arith::GaussianParams params, double target,
                                                   double slack, std::uint64_t samples,
                                                   std::uint64_t seed, int k_lo, int k_hi,
                                                   int threads) {
  EmpiricalWindowSearch best;
  for (int k = k_lo; k <= k_hi; ++k) {
    auto source = arith::make_source(dist, width, params);
    const spec::VlcsaConfig config{width, k, variant};
    const auto result = run_vlcsa(config, *source, samples, seed, threads);
    if (result.nominal_rate() <= slack * target) {
      best.window = k;
      best.result = result;
      return best;
    }
    // Keep the last attempt so callers can report the near-miss.
    best.window = k;
    best.result = result;
  }
  return best;
}

}  // namespace vlcsa::harness
