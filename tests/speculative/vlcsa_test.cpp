#include "speculative/vlcsa.hpp"

#include <gtest/gtest.h>

#include <random>

#include "arith/distributions.hpp"

namespace vlcsa::spec {
namespace {

using arith::ApInt;

TEST(VlcsaModel, EmittedResultIsAlwaysExact) {
  // The "reliable" in the title: across both variants and adversarial
  // inputs, what VLCSA emits (1 or 2 cycles) equals the true sum.
  for (const auto variant : {ScsaVariant::kScsa1, ScsaVariant::kScsa2}) {
    const VlcsaModel model(VlcsaConfig{64, 9, variant});
    arith::GaussianSource gauss(64, arith::GaussianParams{0.0, 1048576.0}, true);
    arith::UniformUnsignedSource uniform(64);
    vlcsa::arith::BlockRng rng(11);
    for (int i = 0; i < 20000; ++i) {
      const auto [a, b] = (i % 2 == 0) ? gauss.next(rng) : uniform.next(rng);
      const auto step = model.step(a, b);
      ASSERT_EQ(step.result, step.eval.exact);
      ASSERT_EQ(step.cout, step.eval.exact_cout);
      ASSERT_EQ(step.cycles, step.stalled ? 2 : 1);
    }
  }
}

TEST(VlcsaModel, Variant1StallsExactlyOnErr0) {
  const VlcsaModel model(VlcsaConfig{32, 6, ScsaVariant::kScsa1});
  vlcsa::arith::BlockRng rng(13);
  for (int i = 0; i < 5000; ++i) {
    const auto a = ApInt::random(32, rng);
    const auto b = ApInt::random(32, rng);
    const auto step = model.step(a, b);
    ASSERT_EQ(step.stalled, step.eval.err0);
  }
}

TEST(VlcsaModel, Variant2StallsOnlyWhenBothFlagsRaise) {
  const VlcsaModel model(VlcsaConfig{32, 6, ScsaVariant::kScsa2});
  vlcsa::arith::BlockRng rng(17);
  int one_cycle_saves = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto a = ApInt::random(32, rng);
    const auto b = ApInt::random(32, rng);
    const auto step = model.step(a, b);
    ASSERT_EQ(step.stalled, step.eval.err0 && step.eval.err1);
    if (step.eval.err0 && !step.eval.err1) ++one_cycle_saves;
  }
  // The whole point of VLCSA 2: some ERR0 cases are answered in one cycle.
  EXPECT_GT(one_cycle_saves, 0);
}

TEST(VlcsaModel, Variant2NeverStallsMoreThanVariant1) {
  // Stall(v2) = ERR0 & ERR1 implies Stall(v1) = ERR0: v2's stall set is a
  // subset, so its average latency can only be equal or better.
  const VlcsaModel v1(VlcsaConfig{64, 10, ScsaVariant::kScsa1});
  const VlcsaModel v2(VlcsaConfig{64, 10, ScsaVariant::kScsa2});
  vlcsa::arith::BlockRng rng(19);
  for (int i = 0; i < 10000; ++i) {
    const auto a = ApInt::random(64, rng);
    const auto b = ApInt::random(64, rng);
    const bool s1 = v1.step(a, b).stalled;
    const bool s2 = v2.step(a, b).stalled;
    if (s2) {
      ASSERT_TRUE(s1);
    }
  }
}

TEST(VlcsaModel, GaussianStallRateGapBetweenVariants) {
  // Table 7.1 vs 7.2 in miniature: on 2's-complement Gaussian inputs,
  // VLCSA 1 stalls on ~25% of additions (long sign chains), VLCSA 2 on far
  // fewer.
  const int n = 64, k = 14;
  arith::GaussianSource source(n, arith::GaussianParams{0.0, 4294967296.0}, true);
  const VlcsaModel v1(VlcsaConfig{n, k, ScsaVariant::kScsa1});
  const VlcsaModel v2(VlcsaConfig{n, k, ScsaVariant::kScsa2});
  vlcsa::arith::BlockRng r1(23), r2(23);
  LatencyStats s1, s2;
  for (int i = 0; i < 20000; ++i) {
    const auto [a1, b1] = source.next(r1);
    s1.record(v1.step(a1, b1));
    s2.record(v2.step(a1, b1));
  }
  EXPECT_NEAR(s1.stall_rate(), 0.25, 0.03);
  EXPECT_LT(s2.stall_rate(), 0.01);
  EXPECT_LT(s2.average_cycles(), s1.average_cycles());
}

TEST(LatencyStats, AverageCyclesFollowsEq52) {
  // T_ave = (1 + P_stall) * T_clk: with cycles in {1,2} this is exact.
  LatencyStats stats;
  VlcsaStep fast;
  fast.cycles = 1;
  fast.stalled = false;
  VlcsaStep slow;
  slow.cycles = 2;
  slow.stalled = true;
  for (int i = 0; i < 99; ++i) stats.record(fast);
  stats.record(slow);
  EXPECT_DOUBLE_EQ(stats.stall_rate(), 0.01);
  EXPECT_DOUBLE_EQ(stats.average_cycles(), 1.01);
  EXPECT_DOUBLE_EQ(stats.average_cycles(), 1.0 + stats.stall_rate());
}

TEST(LatencyStats, EmptyIsZero) {
  const LatencyStats stats;
  EXPECT_DOUBLE_EQ(stats.stall_rate(), 0.0);
  EXPECT_DOUBLE_EQ(stats.average_cycles(), 0.0);
}

}  // namespace
}  // namespace vlcsa::spec
