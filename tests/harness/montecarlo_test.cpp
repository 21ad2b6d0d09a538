#include "harness/montecarlo.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "speculative/error_model.hpp"

namespace vlcsa::harness {
namespace {

TEST(MonteCarlo, VlcsaResultIsDeterministicInSeed) {
  const spec::VlcsaConfig config{64, 10, spec::ScsaVariant::kScsa1};
  auto s1 = arith::make_source(arith::InputDistribution::kUniformUnsigned, 64);
  auto s2 = arith::make_source(arith::InputDistribution::kUniformUnsigned, 64);
  const auto r1 = run_vlcsa(config, *s1, 5000, 42);
  const auto r2 = run_vlcsa(config, *s2, 5000, 42);
  EXPECT_EQ(r1.actual_errors, r2.actual_errors);
  EXPECT_EQ(r1.nominal_errors, r2.nominal_errors);
}

TEST(MonteCarlo, InvariantCountersHoldOnUniform) {
  const spec::VlcsaConfig config{64, 8, spec::ScsaVariant::kScsa1};
  auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, 64);
  const auto r = run_vlcsa(config, *source, 50000, 7);
  EXPECT_EQ(r.false_negatives, 0u);
  EXPECT_EQ(r.emitted_wrong, 0u);
  EXPECT_GE(r.nominal_errors, r.actual_errors);
  EXPECT_GT(r.nominal_errors, 0u);  // k = 8 errs often enough to observe
  EXPECT_NEAR(r.average_cycles(), 1.0 + r.nominal_rate(), 1e-12);
}

TEST(MonteCarlo, NominalRateTracksAnalyticalModel) {
  // Fig 7.1 in miniature: ERR0 rate vs the exact DP model.
  const int n = 64, k = 7;
  const spec::VlcsaConfig config{n, k, spec::ScsaVariant::kScsa1};
  auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, n);
  const std::uint64_t samples = 300000;
  const auto r = run_vlcsa(config, *source, samples, 11);
  const double expected = spec::scsa_exact_error_rate(n, k);
  const double sigma = std::sqrt(expected * (1 - expected) / static_cast<double>(samples));
  EXPECT_NEAR(r.nominal_rate(), expected, 5 * sigma + 1e-4);
}

TEST(MonteCarlo, GaussianVlcsa1StallsNearQuarter) {
  // Table 7.1: ~25% for 2's-complement Gaussian with sigma = 2^32.
  const spec::VlcsaConfig config{64, 14, spec::ScsaVariant::kScsa1};
  auto source = arith::make_source(arith::InputDistribution::kGaussianTwos, 64,
                                   arith::GaussianParams{0.0, 4294967296.0});
  const auto r = run_vlcsa(config, *source, 40000, 13);
  EXPECT_NEAR(r.nominal_rate(), 0.25, 0.02);
  EXPECT_EQ(r.false_negatives, 0u);
}

TEST(MonteCarlo, GaussianVlcsa2StallsRarely) {
  // Table 7.2: ~0.01% for the same inputs.
  const spec::VlcsaConfig config{64, 14, spec::ScsaVariant::kScsa2};
  auto source = arith::make_source(arith::InputDistribution::kGaussianTwos, 64,
                                   arith::GaussianParams{0.0, 4294967296.0});
  const auto r = run_vlcsa(config, *source, 40000, 13);
  EXPECT_LT(r.nominal_rate(), 0.005);
  EXPECT_EQ(r.false_negatives, 0u);
  EXPECT_EQ(r.emitted_wrong, 0u);
}

TEST(MonteCarlo, GaussianVlcsa2TakesFewerCyclesThanVlcsa1) {
  // Eq. (5.2) on the Ch. 7 inputs: VLCSA 2 stalls only when both of its
  // speculative sums are flagged, which sign-extended two's-complement
  // operands rarely trigger (Table 7.2 vs 7.1), so the same stream takes
  // fewer total cycles (n = 64, k = 14).
  const auto run = [](spec::ScsaVariant variant) {
    auto source = arith::make_source(arith::InputDistribution::kGaussianTwos, 64,
                                     arith::GaussianParams{0.0, 4294967296.0});
    return run_vlcsa({64, 14, variant}, *source, 20000, 11);
  };
  const auto r1 = run(spec::ScsaVariant::kScsa1);
  const auto r2 = run(spec::ScsaVariant::kScsa2);
  EXPECT_LT(r2.total_cycles, r1.total_cycles);
  EXPECT_EQ(r1.emitted_wrong, 0u);
  EXPECT_EQ(r2.emitted_wrong, 0u);
}

TEST(MonteCarlo, VlsaRunHonorsInvariants) {
  const spec::VlsaConfig config{64, 8};
  auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, 64);
  const auto r = run_vlsa(config, *source, 50000, 17);
  EXPECT_EQ(r.false_negatives, 0u);
  EXPECT_EQ(r.emitted_wrong, 0u);
  EXPECT_GE(r.nominal_errors, r.actual_errors);
  const double expected = spec::vlsa_exact_error_rate(64, 8);
  const double sigma = std::sqrt(expected * (1 - expected) / 50000.0);
  EXPECT_NEAR(r.actual_rate(), expected, 5 * sigma + 1e-3);
}

TEST(MonteCarlo, WindowSearchFindsSmallGaussianWindows) {
  // Table 7.5's procedure in miniature: for 2's-complement Gaussian inputs
  // the VLCSA 2 window needed for ~0.25% is small and width-insensitive.
  const auto found = find_window_for_nominal_rate(
      64, spec::ScsaVariant::kScsa2, arith::InputDistribution::kGaussianTwos,
      arith::GaussianParams{0.0, 4294967296.0}, 2.5e-3, 1.25, 20000, 19, 4, 16);
  EXPECT_GE(found.window, 4);
  EXPECT_LE(found.window, 12);
  EXPECT_LE(found.result.nominal_rate(), 1.25 * 2.5e-3);
}

TEST(MonteCarlo, ProfiledRunFoldsTheSameCounters) {
  // The profiled and unprofiled instantiations of the batched loop differ
  // only in their timing policy: identical counters for both model
  // families, and a profile whose batched/scalar split accounts for every
  // sample (tail included).
  const spec::VlcsaConfig config{64, 8, spec::ScsaVariant::kScsa2};
  const spec::VlsaConfig vlsa{64, 8};
  auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, 64);
  RunOptions options{3000, 5, 1, kDefaultShardSize};
  options.lane_words = 4;
  const auto plain = run_vlcsa(config, *source, options);
  const auto plain_vlsa = run_vlsa(vlsa, *source, options);
  RunProfileCollector collector;
  options.profile = &collector;
  EXPECT_EQ(run_vlcsa(config, *source, options), plain);
  const RunProfile profile = collector.snapshot();
  EXPECT_EQ(run_vlsa(vlsa, *source, options), plain_vlsa);
  EXPECT_EQ(profile.batch_blocks, 3000u / 256);
  EXPECT_EQ(profile.batched_samples, 3000u / 256 * 256);
  EXPECT_EQ(profile.scalar_samples, 3000u % 256);
  EXPECT_EQ(profile.lane_words, 4);
}

TEST(MonteCarlo, ZeroSamplesIsWellDefined) {
  const spec::VlcsaConfig config{32, 8, spec::ScsaVariant::kScsa1};
  auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, 32);
  const auto r = run_vlcsa(config, *source, 0, 1);
  EXPECT_EQ(r.samples, 0u);
  EXPECT_DOUBLE_EQ(r.actual_rate(), 0.0);
  EXPECT_DOUBLE_EQ(r.average_cycles(), 0.0);
}

}  // namespace
}  // namespace vlcsa::harness
