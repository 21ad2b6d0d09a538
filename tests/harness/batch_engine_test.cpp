// End-to-end guarantees of the batched Monte Carlo pipeline:
//  * every registered error-rate experiment produces bit-identical
//    ErrorRateResult counters under EvalPath::kBatched vs kScalar;
//  * a shard's masked last batch (shard sizes not divisible by the batch,
//    incl. < 64) preserves that equality;
//  * the thread-count-invariance contract of engine.hpp holds on the
//    batched path too;
//  * the chain profiles' batched loop (run_chain_profile) leaves the
//    histogram that recording every next() pair one at a time leaves.

#include <gtest/gtest.h>

#include "arith/distributions.hpp"
#include "harness/engine.hpp"
#include "harness/experiments.hpp"
#include "harness/montecarlo.hpp"

namespace vlcsa::harness {
namespace {

TEST(BatchEngineTest, EveryRegistryExperimentBitIdenticalBatchVsScalar) {
  // 1031 samples: prime, so the last shard ends in a masked batch whose
  // last group holds 1031 % 64 = 7 valid lanes.
  constexpr std::uint64_t kSamples = 1031;
  for (const auto& experiment : error_rate_experiments()) {
    const RunOptions options{.samples = kSamples, .seed = 3, .threads = 1};
    const auto batched = run_experiment(experiment, options, EvalPath::kBatched);
    const auto scalar = run_experiment(experiment, options, EvalPath::kScalar);
    EXPECT_EQ(batched, scalar) << experiment.name;
    EXPECT_EQ(batched.samples, kSamples) << experiment.name;
  }
}

TEST(BatchEngineTest, TailOnlyShardSizesStayBitIdentical) {
  const auto source = arith::make_source(arith::InputDistribution::kGaussianTwos, 64);
  // Shard sizes straddling the 64-lane boundary: 1 and 63 are one masked
  // group, 65 and 127 a masked batch of two groups, 128 two whole groups.
  for (const std::uint64_t shard_size : {1ull, 63ull, 65ull, 127ull, 128ull}) {
    const RunOptions options{300, 11, 2, shard_size};
    const auto batched = run_model(ModelKind::kVlcsa2, 64, 9, *source, options, EvalPath::kBatched);
    const auto scalar = run_model(ModelKind::kVlcsa2, 64, 9, *source, options, EvalPath::kScalar);
    EXPECT_EQ(batched, scalar) << "shard size " << shard_size;
    EXPECT_EQ(batched.samples, 300u) << "shard size " << shard_size;
  }
}

TEST(BatchEngineTest, BatchedPathIsLaneWidthInvariant) {
  // lane_words is a pure throughput knob: the merged counters must be
  // bit-identical at every batch width (and any thread count), because
  // every shard draws the same whole 64-sample groups at any width.
  const auto* experiment = find_error_rate_experiment("table7.1/n64");
  ASSERT_NE(experiment, nullptr);
  const auto source =
      arith::make_source(experiment->dist, experiment->width, experiment->params);
  const auto run = [&](const RunOptions& options) {
    return run_model(ModelKind::kVlcsa1, experiment->width, experiment->window, *source, options,
                     EvalPath::kBatched);
  };
  ErrorRateResult reference;
  bool have_reference = false;
  for (const int lane_words : {1, 2, 4, 8}) {
    for (const int threads : {1, 2}) {
      RunOptions options;
      options.samples = 5000;
      options.seed = 23;
      options.threads = threads;
      options.lane_words = lane_words;
      const auto result = run(options);
      if (!have_reference) {
        reference = result;
        have_reference = true;
      }
      EXPECT_EQ(result, reference) << "W=" << lane_words << " threads=" << threads;
    }
  }
  // And the default width (lane_words = 0 -> kDefaultLaneWords) matches too.
  RunOptions options;
  options.samples = 5000;
  options.seed = 23;
  EXPECT_EQ(run(options), reference);
}

TEST(BatchEngineTest, BatchedPathIsThreadCountInvariant) {
  const auto* experiment = find_error_rate_experiment("table7.1/n64");
  ASSERT_NE(experiment, nullptr);
  const auto run = [experiment](int threads) {
    return run_experiment(*experiment, {.samples = 5000, .seed = 17, .threads = threads},
                          EvalPath::kBatched);
  };
  const auto one = run(1);
  const auto four = run(4);
  const auto all = run(0);
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, all);
}

TEST(BatchEngineTest, VlsaBatchedMatchesScalarAcrossShardSizes) {
  const auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, 64);
  for (const std::uint64_t shard_size : {1ull, 63ull, 65ull, 127ull}) {
    const RunOptions options{257, 5, 1, shard_size};
    const auto batched = run_model(ModelKind::kVlsa, 64, 9, *source, options, EvalPath::kBatched);
    const auto scalar = run_model(ModelKind::kVlsa, 64, 9, *source, options, EvalPath::kScalar);
    EXPECT_EQ(batched, scalar) << "shard size " << shard_size;
  }
}

TEST(BatchEngineTest, InvariantsHoldOnBatchedPath) {
  // Detection over-approximates and recovery is exact, on the batched path
  // exactly as on the scalar one.
  for (const auto* name : {"table7.1/n64", "table7.2/n64", "vlsa/n64"}) {
    const auto* experiment = find_error_rate_experiment(name);
    ASSERT_NE(experiment, nullptr) << name;
    const auto result =
        run_experiment(*experiment, {.samples = 20000, .seed = 1}, EvalPath::kBatched);
    EXPECT_EQ(result.false_negatives, 0u) << name;
    EXPECT_EQ(result.emitted_wrong, 0u) << name;
    EXPECT_GE(result.nominal_errors, result.actual_errors) << name;
  }
}

/// The per-sample chain-profile loop the batched one replaced: each shard
/// records its next() pairs one by one with CarryChainProfiler::record.
arith::CarryChainProfiler per_sample_chain_profile(const arith::OperandSource& source,
                                                   const RunOptions& options) {
  return run_sharded(options, [&] { return arith::CarryChainProfiler(source.width()); }, [&] {
    return [shard_source = source.clone()](arith::BlockRng& rng, arith::CarryChainProfiler& acc) {
      const auto [a, b] = shard_source->next(rng);
      acc.record(a, b);
    };
  });
}

TEST(BatchEngineTest, ChainProfilesMatchThePerSampleOracle) {
  // Shards of under one group (63), a partial last group (65, 1000) and
  // whole 512-lane batches with a masked last shard (2048 of 2500), at
  // lane widths with and without a leftover word, on every distribution.
  for (const auto dist :
       {arith::InputDistribution::kUniformUnsigned, arith::InputDistribution::kUniformTwos,
        arith::InputDistribution::kGaussianUnsigned, arith::InputDistribution::kGaussianTwos}) {
    const auto source = arith::make_source(dist, 32, {0.0, 1048576.0});
    for (const std::uint64_t shard_size : {63ull, 65ull, 1000ull, 2048ull}) {
      RunOptions options{2500, 9, 2, shard_size};
      const auto oracle = per_sample_chain_profile(*source, options);
      for (const int lane_words : {1, 3, 8}) {
        options.lane_words = lane_words;
        const auto batched = run_chain_profile(*source, options);
        EXPECT_EQ(batched.counts(), oracle.counts())
            << arith::to_string(dist) << " shard " << shard_size << " W " << lane_words;
        EXPECT_EQ(batched.total(), oracle.total()) << arith::to_string(dist);
        EXPECT_EQ(batched.additions(), 2500u) << arith::to_string(dist);
      }
    }
  }
}

}  // namespace
}  // namespace vlcsa::harness
