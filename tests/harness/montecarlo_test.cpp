#include "harness/montecarlo.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "speculative/error_model.hpp"

namespace vlcsa::harness {
namespace {

TEST(MonteCarlo, VlcsaResultIsDeterministicInSeed) {
  auto s1 = arith::make_source(arith::InputDistribution::kUniformUnsigned, 64);
  auto s2 = arith::make_source(arith::InputDistribution::kUniformUnsigned, 64);
  const auto r1 = run_model(ModelKind::kVlcsa1, 64, 10, *s1, {.samples = 5000, .seed = 42});
  const auto r2 = run_model(ModelKind::kVlcsa1, 64, 10, *s2, {.samples = 5000, .seed = 42});
  EXPECT_EQ(r1.actual_errors, r2.actual_errors);
  EXPECT_EQ(r1.nominal_errors, r2.nominal_errors);
}

TEST(MonteCarlo, InvariantCountersHoldOnUniform) {
  auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, 64);
  const auto r = run_model(ModelKind::kVlcsa1, 64, 8, *source, {.samples = 50000, .seed = 7});
  EXPECT_EQ(r.false_negatives, 0u);
  EXPECT_EQ(r.emitted_wrong, 0u);
  EXPECT_GE(r.nominal_errors, r.actual_errors);
  EXPECT_GT(r.nominal_errors, 0u);  // k = 8 errs often enough to observe
  EXPECT_NEAR(r.average_cycles(), 1.0 + r.nominal_rate(), 1e-12);
}

TEST(MonteCarlo, NominalRateTracksAnalyticalModel) {
  // Fig 7.1 in miniature: ERR0 rate vs the exact DP model.
  const int n = 64, k = 7;
  auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, n);
  const std::uint64_t samples = 300000;
  const auto r = run_model(ModelKind::kVlcsa1, n, k, *source, {.samples = samples, .seed = 11});
  const double expected = spec::scsa_exact_error_rate(n, k);
  EXPECT_TRUE(wilson_interval(r.nominal_errors, r.samples, 5.0).contains(expected))
      << "nominal " << r.nominal_rate() << " vs exact " << expected;
}

TEST(MonteCarlo, GaussianVlcsa1StallsNearQuarter) {
  // Table 7.1: ~25% for 2's-complement Gaussian with sigma = 2^32.
  auto source = arith::make_source(arith::InputDistribution::kGaussianTwos, 64,
                                   arith::GaussianParams{0.0, 4294967296.0});
  const auto r = run_model(ModelKind::kVlcsa1, 64, 14, *source, {.samples = 40000, .seed = 13});
  EXPECT_NEAR(r.nominal_rate(), 0.25, 0.02);
  EXPECT_EQ(r.false_negatives, 0u);
}

TEST(MonteCarlo, GaussianVlcsa2StallsRarely) {
  // Table 7.2: ~0.01% for the same inputs.
  auto source = arith::make_source(arith::InputDistribution::kGaussianTwos, 64,
                                   arith::GaussianParams{0.0, 4294967296.0});
  const auto r = run_model(ModelKind::kVlcsa2, 64, 14, *source, {.samples = 40000, .seed = 13});
  EXPECT_LT(r.nominal_rate(), 0.005);
  EXPECT_EQ(r.false_negatives, 0u);
  EXPECT_EQ(r.emitted_wrong, 0u);
}

TEST(MonteCarlo, GaussianVlcsa2TakesFewerCyclesThanVlcsa1) {
  // Eq. (5.2) on the Ch. 7 inputs: VLCSA 2 stalls only when both of its
  // speculative sums are flagged, which sign-extended two's-complement
  // operands rarely trigger (Table 7.2 vs 7.1), so the same stream takes
  // fewer total cycles (n = 64, k = 14).
  const auto run = [](ModelKind kind) {
    auto source = arith::make_source(arith::InputDistribution::kGaussianTwos, 64,
                                     arith::GaussianParams{0.0, 4294967296.0});
    return run_model(kind, 64, 14, *source, {.samples = 20000, .seed = 11});
  };
  const auto r1 = run(ModelKind::kVlcsa1);
  const auto r2 = run(ModelKind::kVlcsa2);
  EXPECT_LT(r2.total_cycles, r1.total_cycles);
  EXPECT_EQ(r1.emitted_wrong, 0u);
  EXPECT_EQ(r2.emitted_wrong, 0u);
}

TEST(MonteCarlo, VlsaRunHonorsInvariants) {
  auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, 64);
  const auto r = run_model(ModelKind::kVlsa, 64, 8, *source, {.samples = 50000, .seed = 17});
  EXPECT_EQ(r.false_negatives, 0u);
  EXPECT_EQ(r.emitted_wrong, 0u);
  EXPECT_GE(r.nominal_errors, r.actual_errors);
  const double expected = spec::vlsa_exact_error_rate(64, 8);
  EXPECT_TRUE(wilson_interval(r.actual_errors, r.samples, 5.0).contains(expected))
      << "actual " << r.actual_rate() << " vs exact " << expected;
}

TEST(MonteCarlo, WindowSearchFindsSmallGaussianWindows) {
  // Table 7.5's procedure in miniature: for 2's-complement Gaussian inputs
  // the VLCSA 2 window needed for ~0.25% is small and width-insensitive.
  const auto found = find_window_for_nominal_rate(
      64, ModelKind::kVlcsa2, arith::InputDistribution::kGaussianTwos,
      arith::GaussianParams{0.0, 4294967296.0}, 2.5e-3, 1.25, {.samples = 20000, .seed = 19}, 4,
      16);
  EXPECT_GE(found.window, 4);
  EXPECT_LE(found.window, 12);
  EXPECT_LE(found.result.nominal_rate(), 1.25 * 2.5e-3);
}

TEST(MonteCarlo, WindowSearchSizesTheVlsaChainLength) {
  // The same search over the VLSA family: the chain length l it returns for
  // a 0.01% stall rate on uniform inputs is the smallest that meets
  // slack * target, so a run at l - 1 with the same options misses it.
  constexpr double kTarget = 1e-4;
  constexpr double kSlack = 1.25;
  const RunOptions options{.samples = 200000, .seed = 29};
  const auto found = find_window_for_nominal_rate(
      64, ModelKind::kVlsa, arith::InputDistribution::kUniformUnsigned, {}, kTarget, kSlack,
      options, 8, 32);
  ASSERT_GT(found.window, 8);
  EXPECT_LE(found.result.nominal_rate(), kSlack * kTarget);
  auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, 64);
  EXPECT_GT(run_model(ModelKind::kVlsa, 64, found.window - 1, *source, options).nominal_rate(),
            kSlack * kTarget);
}

TEST(MonteCarlo, ProfiledRunFoldsTheSameCounters) {
  // The profiled and unprofiled instantiations of the batched loop differ
  // only in their timing policy: identical counters for both model
  // families, and a profile in which every sample went through the batched
  // kernel — the 3000 % 256 = 184-sample tail as one more (masked,
  // 3-lane-word) block, counted and timed like any other.
  auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, 64);
  RunOptions options{3000, 5, 1, kDefaultShardSize};
  options.lane_words = 4;
  const auto plain = run_model(ModelKind::kVlcsa2, 64, 8, *source, options);
  const auto plain_vlsa = run_model(ModelKind::kVlsa, 64, 8, *source, options);
  RunProfileCollector collector;
  options.profile = &collector;
  EXPECT_EQ(run_model(ModelKind::kVlcsa2, 64, 8, *source, options), plain);
  const RunProfile profile = collector.snapshot();
  EXPECT_EQ(run_model(ModelKind::kVlsa, 64, 8, *source, options), plain_vlsa);
  EXPECT_EQ(profile.batch_blocks, 3000u / 256 + 1);
  EXPECT_EQ(profile.batched_samples, 3000u);
  EXPECT_EQ(profile.scalar_samples, 0u);
  EXPECT_EQ(profile.lane_words, 4);
  EXPECT_GT(profile.fill_seconds + profile.eval_seconds, 0.0);
}

TEST(MonteCarlo, MaskedLastBatchMatchesTheScalarOracle) {
  // Shards ending in a masked batch of under one group (1, 63), whole
  // groups (64) or a partial last group (65, 200, 1000), and whole batches
  // (512, 256 lanes each at 4 lane words, with a 452-sample last shard),
  // all fold to the scalar path's counters, for both model families.
  auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, 64);
  for (const std::uint64_t shard_size : {1u, 63u, 64u, 65u, 200u, 512u, 1000u}) {
    RunOptions options{2500, 3, 2, shard_size};
    options.lane_words = 4;
    EXPECT_EQ(run_model(ModelKind::kVlcsa1, 64, 6, *source, options),
              run_model(ModelKind::kVlcsa1, 64, 6, *source, options, EvalPath::kScalar))
        << "shard size " << shard_size;
    EXPECT_EQ(run_model(ModelKind::kVlsa, 64, 5, *source, options),
              run_model(ModelKind::kVlsa, 64, 5, *source, options, EvalPath::kScalar))
        << "shard size " << shard_size;
  }
}

TEST(MonteCarlo, WilsonIntervalMatchesClosedForm) {
  // 0 of 100 at z = 2: [0, z^2 / (n + z^2)].
  const WilsonInterval none = wilson_interval(0, 100, 2.0);
  EXPECT_NEAR(none.lo, 0.0, 1e-15);
  EXPECT_NEAR(none.hi, 4.0 / 104.0, 1e-15);
  // 50 of 100 at z = 1: centred on 0.5, half-width sqrt(25.25) / 101.
  const WilsonInterval half = wilson_interval(50, 100, 1.0);
  EXPECT_NEAR(half.lo, 0.5 - std::sqrt(25.25) / 101.0, 1e-15);
  EXPECT_NEAR(half.hi, 0.5 + std::sqrt(25.25) / 101.0, 1e-15);
  EXPECT_TRUE(half.contains(0.451));
  EXPECT_FALSE(half.contains(0.45));
  const WilsonInterval empty = wilson_interval(0, 0, 5.0);
  EXPECT_TRUE(empty.contains(0.0));
  EXPECT_TRUE(empty.contains(1.0));
}

TEST(MonteCarlo, ZeroSamplesIsWellDefined) {
  auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, 32);
  const auto r = run_model(ModelKind::kVlcsa1, 32, 8, *source, {.samples = 0, .seed = 1});
  EXPECT_EQ(r.samples, 0u);
  EXPECT_DOUBLE_EQ(r.actual_rate(), 0.0);
  EXPECT_DOUBLE_EQ(r.average_cycles(), 0.0);
}

TEST(ErrorRateResult, AverageCyclesFollowsEq52) {
  // T_ave = (1 + P_stall) * T_clk: with cycles in {1,2} this is exact.
  ErrorRateResult stats;
  spec::VlcsaStep fast;
  fast.cycles = 1;
  fast.stalled = false;
  spec::VlcsaStep slow;
  slow.cycles = 2;
  slow.stalled = true;
  for (int i = 0; i < 99; ++i) accumulate_vlcsa(fast, spec::ScsaVariant::kScsa1, stats);
  accumulate_vlcsa(slow, spec::ScsaVariant::kScsa1, stats);
  EXPECT_DOUBLE_EQ(stats.nominal_rate(), 0.01);
  EXPECT_DOUBLE_EQ(stats.average_cycles(), 1.01);
  EXPECT_DOUBLE_EQ(stats.average_cycles(), 1.0 + stats.nominal_rate());
}

TEST(ErrorRateResult, EmptyIsZero) {
  const ErrorRateResult stats;
  EXPECT_DOUBLE_EQ(stats.nominal_rate(), 0.0);
  EXPECT_DOUBLE_EQ(stats.average_cycles(), 0.0);
}

}  // namespace
}  // namespace vlcsa::harness
