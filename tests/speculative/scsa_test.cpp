#include "speculative/scsa.hpp"

#include <gtest/gtest.h>

#include <random>

#include "arith/distributions.hpp"

namespace vlcsa::spec {
namespace {

using arith::ApInt;

TEST(ScsaModel, RejectsWidthMismatch) {
  const ScsaModel model(ScsaConfig{64, 14});
  EXPECT_THROW(model.evaluate(ApInt(32), ApInt(64)), std::invalid_argument);
}

TEST(ScsaModel, ExactFieldIsTrueSum) {
  const ScsaModel model(ScsaConfig{64, 14});
  vlcsa::arith::BlockRng rng(1);
  for (int i = 0; i < 100; ++i) {
    const auto a = ApInt::random(64, rng);
    const auto b = ApInt::random(64, rng);
    const auto ev = model.evaluate(a, b);
    const auto ref = ApInt::add(a, b);
    EXPECT_EQ(ev.exact, ref.sum);
    EXPECT_EQ(ev.exact_cout, ref.carry_out);
  }
}

TEST(ScsaModel, SingleWindowIsAlwaysExact) {
  const ScsaModel model(ScsaConfig{16, 16});
  vlcsa::arith::BlockRng rng(2);
  for (int i = 0; i < 200; ++i) {
    const auto ev = model.evaluate(ApInt::random(16, rng), ApInt::random(16, rng));
    EXPECT_TRUE(ev.spec0_correct());
    EXPECT_TRUE(ev.spec1_correct());
    EXPECT_FALSE(ev.err0);
    EXPECT_FALSE(ev.err1);
  }
}

TEST(ScsaModel, TwoWindowPairOnlyFlagsWithoutError) {
  // 16-bit adder, k = 8.  Window 0 generates, window 1 is all-propagate.
  // With only two windows there is no "next next" window to corrupt — the
  // speculated carry into window 1 (= G0 = 1) is exact, so S*,0 is correct
  // even though ERR0 flags.  This is precisely the detector's documented
  // overestimation (Ch. 5.1).
  const ScsaModel model(ScsaConfig{16, 8});
  const ApInt a = ApInt::from_binary(16, "0101010111111111");  // low byte 0xFF
  const ApInt b = ApInt::from_binary(16, "1010101000000001");  // low byte 0x01
  const auto ev = model.evaluate(a, b);
  EXPECT_TRUE(ev.window_g[0]);
  EXPECT_TRUE(ev.window_p[1]);
  EXPECT_TRUE(ev.err0);
  EXPECT_TRUE(ev.spec0_correct());
}

TEST(ScsaModel, HandCraftedTruncationError) {
  // 24-bit adder, k = 8.  Window 0 generates, windows 1 and 2 are both
  // all-propagate: the carry crosses window 1 whole, but SCSA 1 speculates
  // window 2's carry-in as G1 = 0 — wrong.  ERR0 flags; ERR1 stays low (the
  // propagate run reaches the MSB window), so S*,1 — whose window-2 select
  // is G1 | P1 = 1 — is correct and VLCSA 2 answers in one cycle.
  const ScsaModel model(ScsaConfig{24, 8});
  ApInt a(24), b(24);
  a.deposit(0, 8, 0xff);  // window 0: 0xFF + 0x01 -> generate
  b.deposit(0, 8, 0x01);
  a.deposit(8, 8, 0x55);  // window 1: all-propagate
  b.deposit(8, 8, 0xaa);
  a.deposit(16, 8, 0x33);  // window 2: all-propagate
  b.deposit(16, 8, 0xcc);
  const auto ev = model.evaluate(a, b);
  EXPECT_TRUE(ev.window_g[0]);
  EXPECT_TRUE(ev.window_p[1]);
  EXPECT_TRUE(ev.window_p[2]);
  EXPECT_TRUE(ev.err0);
  EXPECT_FALSE(ev.err1);
  EXPECT_FALSE(ev.spec0_correct());
  EXPECT_TRUE(ev.spec1_correct());
  EXPECT_TRUE(ev.vlcsa2_selected_correct());
  EXPECT_FALSE(ev.vlcsa2_stall());
}

TEST(ScsaModel, HandCraftedChainDyingEarly) {
  // 24-bit adder, k = 8.  Window 0 generates, window 1 propagates, window 2
  // kills: ERR0 = 1 and ERR1 = 1 (the run dies before the MSB window), so
  // VLCSA 2 must stall; recovery must be exact.
  const ScsaModel model(ScsaConfig{24, 8});
  ApInt a(24), b(24);
  // Window 0 generate: a=0xFF, b=0x01.
  a.deposit(0, 8, 0xff);
  b.deposit(0, 8, 0x01);
  // Window 1 propagate: a=0x55, b=0xAA.
  a.deposit(8, 8, 0x55);
  b.deposit(8, 8, 0xaa);
  // Window 2 kill: zeros.
  const auto ev = model.evaluate(a, b);
  EXPECT_TRUE(ev.err0);
  EXPECT_TRUE(ev.err1);
  EXPECT_TRUE(ev.vlcsa2_stall());
  EXPECT_FALSE(ev.spec0_correct());
  EXPECT_EQ(ev.recovered, ev.exact);
  EXPECT_EQ(ev.recovered_cout, ev.exact_cout);
}

struct ScsaSweepCase {
  int width;
  int window;
};

class ScsaSweepTest : public ::testing::TestWithParam<ScsaSweepCase> {
 protected:
  static constexpr int kSamples = 20000;
};

TEST_P(ScsaSweepTest, RecoveryIsAlwaysExact) {
  const auto [n, k] = GetParam();
  const ScsaModel model(ScsaConfig{n, k});
  vlcsa::arith::BlockRng rng(100 + static_cast<unsigned>(n * k));
  for (int i = 0; i < kSamples; ++i) {
    const auto ev = model.evaluate(ApInt::random(n, rng), ApInt::random(n, rng));
    ASSERT_EQ(ev.recovered, ev.exact);
    ASSERT_EQ(ev.recovered_cout, ev.exact_cout);
  }
}

TEST_P(ScsaSweepTest, DetectionNeverMissesAnError) {
  // The load-bearing reliability invariant (Ch. 5.1): every wrong S*,0 must
  // raise ERR0 — no false negatives, over any input.
  const auto [n, k] = GetParam();
  const ScsaModel model(ScsaConfig{n, k});
  vlcsa::arith::BlockRng rng(200 + static_cast<unsigned>(n * k));
  for (int i = 0; i < kSamples; ++i) {
    const auto ev = model.evaluate(ApInt::random(n, rng), ApInt::random(n, rng));
    if (!ev.spec0_correct()) {
      ASSERT_TRUE(ev.err0);
    }
  }
}

TEST_P(ScsaSweepTest, Vlcsa2SelectionTheorem) {
  // Ch. 6.6 case analysis: whenever ERR0 = 1 and ERR1 = 0, the second
  // speculative result S*,1 equals the exact sum (including carry-out), so
  // VLCSA 2 can answer in one cycle.  And when it does not stall, the
  // selected result is always correct.
  const auto [n, k] = GetParam();
  const ScsaModel model(ScsaConfig{n, k});
  vlcsa::arith::BlockRng rng(300 + static_cast<unsigned>(n * k));
  for (int i = 0; i < kSamples; ++i) {
    const auto ev = model.evaluate(ApInt::random(n, rng), ApInt::random(n, rng));
    if (ev.err0 && !ev.err1) {
      ASSERT_TRUE(ev.spec1_correct());
    }
    if (!ev.vlcsa2_stall()) {
      ASSERT_TRUE(ev.vlcsa2_selected_correct());
    }
  }
}

TEST_P(ScsaSweepTest, Vlcsa2SelectionTheoremOnGaussianInputs) {
  // Same theorem over the adversarial distribution (long sign-extension
  // chains): 2's complement Gaussian.
  const auto [n, k] = GetParam();
  if (n < 64) GTEST_SKIP() << "sigma 2^20 needs some headroom";
  const ScsaModel model(ScsaConfig{n, k});
  arith::GaussianSource source(n, arith::GaussianParams{0.0, 1048576.0}, true);
  vlcsa::arith::BlockRng rng(400 + static_cast<unsigned>(n * k));
  for (int i = 0; i < kSamples; ++i) {
    const auto [a, b] = source.next(rng);
    const auto ev = model.evaluate(a, b);
    if (!ev.spec0_correct()) {
      ASSERT_TRUE(ev.err0);
    }
    if (ev.err0 && !ev.err1) {
      ASSERT_TRUE(ev.spec1_correct());
    }
    if (!ev.vlcsa2_stall()) {
      ASSERT_TRUE(ev.vlcsa2_selected_correct());
    }
    ASSERT_EQ(ev.recovered, ev.exact);
  }
}

TEST_P(ScsaSweepTest, Err0MatchesPairEventExactly) {
  // ERR0 is *defined* as "some window generates and the next propagates";
  // cross-check the model's flag against a direct group-signal scan.
  const auto [n, k] = GetParam();
  const ScsaModel model(ScsaConfig{n, k});
  vlcsa::arith::BlockRng rng(500 + static_cast<unsigned>(n * k));
  for (int i = 0; i < 2000; ++i) {
    const auto a = ApInt::random(n, rng);
    const auto b = ApInt::random(n, rng);
    const auto ev = model.evaluate(a, b);
    const arith::PropagateGenerate pg(a, b);
    bool expected = false;
    for (int w = 0; w + 1 < model.layout().count(); ++w) {
      const auto& cur = model.layout().window(w);
      const auto& nxt = model.layout().window(w + 1);
      expected = expected || (pg.group_generate(cur.pos, cur.size) &&
                              pg.group_propagate(nxt.pos, nxt.size));
    }
    ASSERT_EQ(ev.err0, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(WidthWindowGrid, ScsaSweepTest,
                         ::testing::Values(ScsaSweepCase{16, 4}, ScsaSweepCase{24, 8},
                                           ScsaSweepCase{32, 5}, ScsaSweepCase{64, 8},
                                           ScsaSweepCase{64, 14}, ScsaSweepCase{100, 9},
                                           ScsaSweepCase{128, 15}, ScsaSweepCase{256, 16}),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param.width) + "_k" +
                                  std::to_string(info.param.window);
                         });

TEST(ScsaModel, LowErrorMagnitudeProperty) {
  // Ch. 3.3: when SCSA 1 errs, each erring window was computed with its
  // carry-in off by one, so the total error decomposes as a sum of
  // window-weight corrections: exact = spec0 + sum of delta_w * 2^pos_w with
  // delta_w in {-1, 0, +1} — never a lone flipped high bit.
  const ScsaModel model(ScsaConfig{32, 8});
  const auto& windows = model.layout().windows();
  const int m = static_cast<int>(windows.size());
  vlcsa::arith::BlockRng rng(42);
  int errors = 0;
  while (errors < 200) {
    const auto a = ApInt::random(32, rng);
    const auto b = ApInt::random(32, rng);
    const auto ev = model.evaluate(a, b);
    if (ev.spec0_correct()) continue;
    ++errors;
    // Enumerate all 3^m delta assignments (window 0 is never wrong, but keep
    // it in the search for simplicity).
    bool decomposes = false;
    int combos = 1;
    for (int w = 0; w < m; ++w) combos *= 3;
    for (int c = 0; c < combos && !decomposes; ++c) {
      ApInt candidate = ev.spec0;
      int rest = c;
      for (int w = 0; w < m; ++w) {
        const int delta = rest % 3;  // 0, +1, -1
        rest /= 3;
        ApInt weight(32);
        weight.set_bit(windows[static_cast<std::size_t>(w)].pos, true);
        if (delta == 1) candidate = candidate + weight;
        if (delta == 2) candidate = candidate - weight;
      }
      decomposes = candidate == ev.exact;
    }
    EXPECT_TRUE(decomposes) << "spec " << ev.spec0 << " exact " << ev.exact;
  }
}

TEST(ToString, Variants) {
  EXPECT_STREQ(to_string(ScsaVariant::kScsa1), "scsa1");
  EXPECT_STREQ(to_string(ScsaVariant::kScsa2), "scsa2");
}

}  // namespace
}  // namespace vlcsa::spec
