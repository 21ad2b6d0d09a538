// Batch-vs-scalar differential tests: the bit-sliced evaluate_batch /
// step_batch paths must reproduce the scalar models' predicates lane for
// lane, at every lane width and on every planeops backend this host can
// run.  Coverage:
//  * exhaustive over ALL operand pairs and ALL window/chain sizes at small
//    widths (n <= 8 — 4^n pairs stays unit-test cheap there);
//  * exhaustive in one operand x deterministic-pseudorandom partner at
//    n in {10, 12}, again over all windows/chains;
//  * randomized at n in {32, 64, 128} x every registered operand
//    distribution x all four models (ScsaModel, VLCSA 1, VLCSA 2, VLSA);
//  * forced long propagate runs at chosen positions: VLSA chains where the
//    run counter widens (l in {15, 16, 17, 31, 32, 33, n}) and SCSA
//    windows that straddle 64-bit limbs (k in {17, 18, 32, 63});
//  * the backend/lane-width matrix: scalar vs SIMD backend x lane words
//    {1, 2, 4} x all four models x tail sizes {1, 63, 65, 127, 255, 257},
//    pinned bit-identical both per-lane (direct batch loads) and through
//    the sharded engine against the scalar EvalPath.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "arith/apint.hpp"
#include "arith/bitslice.hpp"
#include "arith/distributions.hpp"
#include "arith/planeops.hpp"
#include "harness/engine.hpp"
#include "harness/montecarlo.hpp"
#include "speculative/scsa.hpp"
#include "speculative/vlcsa.hpp"
#include "speculative/vlsa.hpp"

namespace vlcsa::spec {
namespace {

using arith::ApInt;
using arith::BitSlicedBatch;
namespace planeops = arith::planeops;

/// Bit j of lane-mask group `mask` (word j/64, bit j%64).
bool mask_lane(const planeops::PlaneVec& mask, std::size_t j) {
  return ((mask[j / 64] >> (j % 64)) & 1) != 0;
}

/// Compares every batch lane mask against per-sample scalar evaluations.
void check_scsa_batch(const ScsaModel& model, const std::vector<ApInt>& a,
                      const std::vector<ApInt>& b, int lane_words = 1) {
  BitSlicedBatch batch(model.config().width, lane_words);
  batch.load(a, b);
  ScsaBatchEvaluation ev;
  model.evaluate_batch(batch, ev);
  ASSERT_EQ(ev.lane_words(), lane_words);
  for (std::size_t j = 0; j < a.size(); ++j) {
    const auto scalar = model.evaluate(a[j], b[j]);
    const int w = static_cast<int>(j / 64);
    const auto lane = [&](const planeops::PlaneVec& mask) { return mask_lane(mask, j); };
    const auto lane_word = [&](std::uint64_t word) { return ((word >> (j % 64)) & 1) != 0; };
    ASSERT_EQ(lane(ev.spec0_wrong), !scalar.spec0_correct())
        << "spec0, n=" << model.config().width << " k=" << model.config().window
        << " a=" << a[j] << " b=" << b[j];
    ASSERT_EQ(lane(ev.spec1_wrong), !scalar.spec1_correct())
        << "spec1, n=" << model.config().width << " k=" << model.config().window
        << " a=" << a[j] << " b=" << b[j];
    ASSERT_EQ(lane(ev.err0), scalar.err0)
        << "err0, n=" << model.config().width << " k=" << model.config().window
        << " a=" << a[j] << " b=" << b[j];
    ASSERT_EQ(lane(ev.err1), scalar.err1)
        << "err1, n=" << model.config().width << " k=" << model.config().window
        << " a=" << a[j] << " b=" << b[j];
    ASSERT_EQ(lane_word(ev.either_wrong(w)), !scalar.either_correct());
    ASSERT_EQ(lane_word(ev.vlcsa2_selected_wrong(w)), !scalar.vlcsa2_selected_correct());
  }
}

void check_vlsa_batch(const VlsaModel& model, const std::vector<ApInt>& a,
                      const std::vector<ApInt>& b, int lane_words = 1) {
  BitSlicedBatch batch(model.config().width, lane_words);
  batch.load(a, b);
  VlsaBatchEvaluation ev;
  model.evaluate_batch(batch, ev);
  ASSERT_EQ(ev.lane_words(), lane_words);
  for (std::size_t j = 0; j < a.size(); ++j) {
    const auto scalar = model.evaluate(a[j], b[j]);
    ASSERT_EQ(mask_lane(ev.spec_wrong, j), !scalar.spec_correct())
        << "n=" << model.config().width << " l=" << model.config().chain << " a=" << a[j]
        << " b=" << b[j];
    ASSERT_EQ(mask_lane(ev.err, j), scalar.err)
        << "n=" << model.config().width << " l=" << model.config().chain << " a=" << a[j]
        << " b=" << b[j];
  }
}

void check_vlcsa_batch(const VlcsaModel& model, const std::vector<ApInt>& a,
                       const std::vector<ApInt>& b, int lane_words = 1) {
  BitSlicedBatch batch(model.config().width, lane_words);
  batch.load(a, b);
  VlcsaBatchStep step;
  model.step_batch(batch, step);
  ASSERT_EQ(step.lane_words(), lane_words);
  for (std::size_t j = 0; j < a.size(); ++j) {
    const auto scalar = model.step(a[j], b[j]);
    ASSERT_EQ(mask_lane(step.stalled, j), scalar.stalled)
        << to_string(model.config().variant) << " n=" << model.config().width
        << " k=" << model.config().window << " a=" << a[j] << " b=" << b[j];
    const bool scalar_emitted_wrong =
        scalar.result != scalar.eval.exact || scalar.cout != scalar.eval.exact_cout;
    ASSERT_EQ(mask_lane(step.emitted_wrong, j), scalar_emitted_wrong);
  }
}

TEST(ScsaBatchDifferentialTest, ExhaustiveSmallWidthsAllWindows) {
  for (int n = 1; n <= 8; ++n) {
    for (int k = 1; k <= n; ++k) {
      const ScsaModel model(ScsaConfig{n, k});
      std::vector<ApInt> a, b;
      a.reserve(64);
      b.reserve(64);
      const std::uint64_t limit = std::uint64_t{1} << n;
      for (std::uint64_t va = 0; va < limit; ++va) {
        for (std::uint64_t vb = 0; vb < limit; ++vb) {
          a.push_back(ApInt::from_u64(n, va));
          b.push_back(ApInt::from_u64(n, vb));
          if (a.size() == 64) {
            check_scsa_batch(model, a, b);
            a.clear();
            b.clear();
          }
        }
      }
      if (!a.empty()) check_scsa_batch(model, a, b);
    }
  }
}

TEST(ScsaBatchDifferentialTest, ExhaustiveOperandAtMediumWidthsAllWindows) {
  // n in {10, 12}: one operand sweeps its full range, the partner is a
  // deterministic pseudorandom function of (value, window) — exhaustive in
  // `a` where the full cross product would be too slow for a unit test.
  for (const int n : {10, 12}) {
    for (int k = 1; k <= n; ++k) {
      const ScsaModel model(ScsaConfig{n, k});
      vlcsa::arith::BlockRng partner(static_cast<std::uint64_t>(n) * 1000 + static_cast<std::uint64_t>(k));
      std::vector<ApInt> a, b;
      const std::uint64_t limit = std::uint64_t{1} << n;
      for (std::uint64_t va = 0; va < limit; ++va) {
        a.push_back(ApInt::from_u64(n, va));
        b.push_back(ApInt::from_u64(n, partner()));
        if (a.size() == 64) {
          check_scsa_batch(model, a, b);
          a.clear();
          b.clear();
        }
      }
      if (!a.empty()) check_scsa_batch(model, a, b);
    }
  }
}

TEST(VlsaBatchDifferentialTest, ExhaustiveSmallWidthsAllChains) {
  for (int n = 1; n <= 8; ++n) {
    for (int l = 1; l <= n; ++l) {
      const VlsaModel model(VlsaConfig{n, l});
      std::vector<ApInt> a, b;
      const std::uint64_t limit = std::uint64_t{1} << n;
      for (std::uint64_t va = 0; va < limit; ++va) {
        for (std::uint64_t vb = 0; vb < limit; ++vb) {
          a.push_back(ApInt::from_u64(n, va));
          b.push_back(ApInt::from_u64(n, vb));
          if (a.size() == 64) {
            check_vlsa_batch(model, a, b);
            a.clear();
            b.clear();
          }
        }
      }
      if (!a.empty()) check_vlsa_batch(model, a, b);
    }
  }
}

TEST(VlsaBatchDifferentialTest, ExhaustiveOperandAtMediumWidthsAllChains) {
  for (const int n : {10, 12}) {
    for (int l = 1; l <= n; ++l) {
      const VlsaModel model(VlsaConfig{n, l});
      vlcsa::arith::BlockRng partner(static_cast<std::uint64_t>(n) * 2000 + static_cast<std::uint64_t>(l));
      std::vector<ApInt> a, b;
      const std::uint64_t limit = std::uint64_t{1} << n;
      for (std::uint64_t va = 0; va < limit; ++va) {
        a.push_back(ApInt::from_u64(n, va));
        b.push_back(ApInt::from_u64(n, partner()));
        if (a.size() == 64) {
          check_vlsa_batch(model, a, b);
          a.clear();
          b.clear();
        }
      }
      if (!a.empty()) check_vlsa_batch(model, a, b);
    }
  }
}

// ---- forced long propagate runs ---------------------------------------------
//
// At realistic windows and chains uniform operands reach the error paths
// about once per 10^4 samples, so these cases build operands that do: one
// all-propagate run of chosen length at a chosen position, the bit below it
// a generate (a carry enters the run) or a kill, the bit above it a kill,
// and b = ~a ^ sparse elsewhere (sparse sets one bit in eight, so shorter
// runs and stray generates surround the forced one).

std::pair<ApInt, ApInt> forced_run(int n, int start, int len, bool carry_in,
                                   arith::BlockRng& rng) {
  ApInt a = ApInt::random(n, rng);
  ApInt sparse = ApInt::random(n, rng) & ApInt::random(n, rng) & ApInt::random(n, rng);
  for (int i = start; i < start + len; ++i) sparse.set_bit(i, false);
  ApInt b = ~a ^ sparse;
  for (const auto& [bit, value] : {std::pair{start - 1, carry_in}, {start + len, false}}) {
    if (bit < 0 || bit >= n) continue;
    a.set_bit(bit, value);
    b.set_bit(bit, value);
  }
  return {std::move(a), std::move(b)};
}

/// Every forced run of each length in `lens` at each start in `starts`
/// (skipping runs that do not fit), with and without a carry into it.
std::vector<std::pair<ApInt, ApInt>> forced_runs(int n, const std::vector<int>& starts,
                                                 const std::vector<int>& lens,
                                                 arith::BlockRng& rng) {
  std::vector<std::pair<ApInt, ApInt>> out;
  for (const int len : lens) {
    for (const int start : starts) {
      if (len < 1 || start < 0 || start + len > n) continue;
      for (const bool carry_in : {false, true}) out.push_back(forced_run(n, start, len, carry_in, rng));
    }
  }
  return out;
}

/// Feeds `pairs` to `check(a, b, lane_words)` in batches of 64 * lane_words
/// at lane words 1, 5 and 8 (single words, a 4-word chunk plus a single word
/// on avx512, one full vector chunk).
template <class Check>
void check_in_batches(const std::vector<std::pair<ApInt, ApInt>>& pairs, Check check) {
  for (const int lane_words : {1, 5, 8}) {
    const std::size_t lanes = 64 * static_cast<std::size_t>(lane_words);
    for (std::size_t first = 0; first < pairs.size(); first += lanes) {
      std::vector<ApInt> a, b;
      for (std::size_t j = first; j < std::min(pairs.size(), first + lanes); ++j) {
        a.push_back(pairs[j].first);
        b.push_back(pairs[j].second);
      }
      check(a, b, lane_words);
    }
  }
}

// Chains where the run counter gains a plane (15/16, 31/32) and l = n, with
// runs of l - 1, l and l + 1 bits at the bottom, across limb boundaries and
// at the top.
TEST(VlsaBatchDifferentialTest, ForcedRunsWhereTheCounterWidens) {
  arith::BlockRng rng(41);
  for (const int n : {64, 130}) {
    for (const int l : {15, 16, 17, 31, 32, 33, n}) {
      const VlsaModel model(VlsaConfig{n, l});
      const std::vector<int> starts = {0, 1, 40, 63, 64, 65, n - l - 1, n - l};
      const auto pairs = forced_runs(n, starts, {l - 1, l, l + 1, 2 * l}, rng);
      int stalls = 0, wrong = 0;
      for (const auto& [a, b] : pairs) {
        const VlsaEvaluation ev = model.evaluate(a, b);
        stalls += ev.err ? 1 : 0;
        wrong += ev.spec_correct() ? 0 : 1;
      }
      EXPECT_GT(stalls, 0) << "n=" << n << " l=" << l;
      // At l = n the one window starts at bit 0, whose carry-in is 0.
      if (l < n) {
        EXPECT_GT(wrong, 0) << "n=" << n << " l=" << l;
      }
      check_in_batches(pairs, [&](const std::vector<ApInt>& a, const std::vector<ApInt>& b,
                                  int lane_words) { check_vlsa_batch(model, a, b, lane_words); });
    }
  }
}

// Windows of 17..63 bits, which straddle 64-bit limbs, with runs that end
// inside, cover or overhang a window around every window boundary.
TEST(ScsaBatchDifferentialTest, ForcedRunsAcrossLimbCrossingWindows) {
  arith::BlockRng rng(42);
  for (const int n : {130, 512}) {
    for (const int k : {17, 18, 32, 63}) {
      const ScsaModel model(ScsaConfig{n, k});
      std::vector<int> starts;
      for (const Window& w : model.layout().windows()) {
        for (const int d : {-1, 0, 1}) starts.push_back(w.pos + d);
      }
      const auto pairs = forced_runs(n, starts, {k - 1, k, k + 1, 2 * k + 1}, rng);
      int stalls = 0;
      for (const auto& [a, b] : pairs) stalls += model.evaluate(a, b).vlcsa2_stall() ? 1 : 0;
      EXPECT_GT(stalls, 0) << "n=" << n << " k=" << k << ": no case reached the error path";
      check_in_batches(pairs, [&](const std::vector<ApInt>& a, const std::vector<ApInt>& b,
                                  int lane_words) { check_scsa_batch(model, a, b, lane_words); });
    }
  }
}

/// Randomized sweep: width x distribution, driven through all four models.
class RandomizedBatchTest
    : public ::testing::TestWithParam<std::tuple<int, arith::InputDistribution>> {};

TEST_P(RandomizedBatchTest, AllFourModelsMatchScalar) {
  const auto [n, dist] = GetParam();
  const auto source = arith::make_source(dist, n);
  vlcsa::arith::BlockRng rng(static_cast<std::uint64_t>(n) * 31 + static_cast<int>(dist));

  // Window/chain choices: one small (frequent errors) and one realistic.
  for (const int k : {4, 11}) {
    const ScsaModel scsa(ScsaConfig{n, k});
    const VlcsaModel vlcsa1(VlcsaConfig{n, k, ScsaVariant::kScsa1});
    const VlcsaModel vlcsa2(VlcsaConfig{n, k, ScsaVariant::kScsa2});
    const VlsaModel vlsa(VlsaConfig{n, std::min(n, k + 2)});
    for (int round = 0; round < 4; ++round) {
      std::vector<ApInt> a, b;
      for (int j = 0; j < 64; ++j) {
        auto [x, y] = source->next(rng);
        a.push_back(std::move(x));
        b.push_back(std::move(y));
      }
      check_scsa_batch(scsa, a, b);
      check_vlcsa_batch(vlcsa1, a, b);
      check_vlcsa_batch(vlcsa2, a, b);
      check_vlsa_batch(vlsa, a, b);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WidthByDistribution, RandomizedBatchTest,
    ::testing::Combine(::testing::Values(32, 64, 128),
                       ::testing::Values(arith::InputDistribution::kUniformUnsigned,
                                         arith::InputDistribution::kUniformTwos,
                                         arith::InputDistribution::kGaussianUnsigned,
                                         arith::InputDistribution::kGaussianTwos)));

/// Short batches (tail shapes) still evaluate correctly: unused lanes are
/// zero-padded operands, which must not disturb the populated lanes.
TEST(ScsaBatchDifferentialTest, PartialBatchLanesMatch) {
  const ScsaModel model(ScsaConfig{64, 8});
  vlcsa::arith::BlockRng rng(77);
  for (const int count : {1, 7, 63}) {
    std::vector<ApInt> a, b;
    for (int j = 0; j < count; ++j) {
      a.push_back(ApInt::random(64, rng));
      b.push_back(ApInt::random(64, rng));
    }
    check_scsa_batch(model, a, b);
  }
}

// ---- backend x lane-width differential matrix -------------------------------

/// The matrix axes: (backend, lane_words).  Backends not available on this
/// host are skipped (the scalar column always runs).
class BackendLaneWidthTest
    : public ::testing::TestWithParam<std::tuple<planeops::Backend, int>> {
 protected:
  void SetUp() override {
    if (!planeops::backend_available(std::get<0>(GetParam()))) {
      GTEST_SKIP() << planeops::to_string(std::get<0>(GetParam()))
                   << " backend not supported on this host";
    }
    ASSERT_TRUE(planeops::set_backend(std::get<0>(GetParam())));
  }
  // Restore the pre-test backend (not "auto"): a process pinned via
  // VLCSA_FORCE_BACKEND must stay pinned for the tests that follow.
  void TearDown() override { planeops::set_backend(prev_); }

 private:
  planeops::Backend prev_ = planeops::active_backend();
};

/// Direct batch loads at every tail size that fits the lane count: each
/// loaded lane must match the scalar model, for all four models.
TEST_P(BackendLaneWidthTest, AllFourModelsMatchScalarPerLane) {
  const auto [backend, lane_words] = GetParam();
  (void)backend;
  const int n = 64;
  const int k = 6;  // small window: frequent errors exercise every predicate
  const ScsaModel scsa(ScsaConfig{n, k});
  const VlcsaModel vlcsa1(VlcsaConfig{n, k, ScsaVariant::kScsa1});
  const VlcsaModel vlcsa2(VlcsaConfig{n, k, ScsaVariant::kScsa2});
  const VlsaModel vlsa(VlsaConfig{n, k + 2});
  vlcsa::arith::BlockRng rng(2024);
  for (const int count : {1, 63, 65, 127, 255, 257}) {
    if (count > 64 * lane_words) continue;  // does not fit this lane width
    std::vector<ApInt> a, b;
    for (int j = 0; j < count; ++j) {
      a.push_back(ApInt::random(n, rng));
      b.push_back(ApInt::random(n, rng));
    }
    check_scsa_batch(scsa, a, b, lane_words);
    check_vlcsa_batch(vlcsa1, a, b, lane_words);
    check_vlcsa_batch(vlcsa2, a, b, lane_words);
    check_vlsa_batch(vlsa, a, b, lane_words);
  }
}

/// Through the sharded engine: total sample counts with every tail shape
/// (count % (64 * lane_words) from "pure tail" to "one batch + 1") must
/// produce counters bit-identical to the scalar EvalPath — the same pinning
/// the service byte-identity contract rides on.
TEST_P(BackendLaneWidthTest, EngineCountersBitIdenticalToScalarPath) {
  const auto [backend, lane_words] = GetParam();
  (void)backend;
  const auto source = arith::make_source(arith::InputDistribution::kGaussianTwos, 64);
  for (const std::uint64_t samples : {1ull, 63ull, 65ull, 127ull, 255ull, 257ull}) {
    harness::RunOptions options;
    options.samples = samples;
    options.seed = 29;
    options.threads = 1;
    options.lane_words = lane_words;
    const auto run = [&](harness::ModelKind kind, int window, harness::EvalPath path) {
      return harness::run_model(kind, 64, window, *source, options, path);
    };
    const auto b1 = run(harness::ModelKind::kVlcsa1, 9, harness::EvalPath::kBatched);
    const auto s1 = run(harness::ModelKind::kVlcsa1, 9, harness::EvalPath::kScalar);
    EXPECT_EQ(b1, s1) << "VLCSA1 samples=" << samples << " W=" << lane_words;
    const auto b2 = run(harness::ModelKind::kVlcsa2, 9, harness::EvalPath::kBatched);
    const auto s2 = run(harness::ModelKind::kVlcsa2, 9, harness::EvalPath::kScalar);
    EXPECT_EQ(b2, s2) << "VLCSA2 samples=" << samples << " W=" << lane_words;
    const auto bv = run(harness::ModelKind::kVlsa, 11, harness::EvalPath::kBatched);
    const auto sv = run(harness::ModelKind::kVlsa, 11, harness::EvalPath::kScalar);
    EXPECT_EQ(bv, sv) << "VLSA samples=" << samples << " W=" << lane_words;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BackendByLaneWords, BackendLaneWidthTest,
    ::testing::Combine(::testing::Values(planeops::Backend::kScalar,
                                         planeops::Backend::kAvx2,
                                         planeops::Backend::kAvx512),
                       ::testing::Values(1, 2, 4, 8, 16)),
    [](const ::testing::TestParamInfo<std::tuple<planeops::Backend, int>>& info) {
      return std::string(planeops::to_string(std::get<0>(info.param))) + "_w" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace vlcsa::spec
