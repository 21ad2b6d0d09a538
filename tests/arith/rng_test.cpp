// BlockRng sequence-identity suite: the repo-owned block-generating
// MT19937-64 must be bit-identical to std::mt19937_64 under every
// construction path (value seed, default seed, std::seed_seq, degenerate
// all-zero sequences), through both the per-call and generate_block APIs at
// every block-boundary alignment, and on every planeops backend (the SIMD
// twist is pinned to the std engine directly, not just to the scalar twist).
// This identity is what lets the whole repo swap draw sites onto BlockRng
// without moving a single Monte Carlo counter.
//
// The GaussianBlockSampler cases pin the bulk fill() walk to per-call
// operator() on every backend (buffer boundaries, interleaving, rejected
// words at chunk and buffer edges), a fixed-seed Kolmogorov-Smirnov and
// chi-square pair checks that the variate stream is standard normal, and a
// tail test checks the variates beyond the ziggurat's base strip.

#include "arith/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "arith/planeops.hpp"
#include "harness/montecarlo.hpp"

namespace vlcsa::arith {
namespace {

std::vector<planeops::Backend> available_backends() {
  std::vector<planeops::Backend> out;
  for (const auto b : {planeops::Backend::kScalar, planeops::Backend::kAvx2,
                       planeops::Backend::kAvx512}) {
    if (planeops::backend_available(b)) out.push_back(b);
  }
  return out;
}

/// Runs the test body on every available backend (the RNG twist/temper ride
/// the planeops dispatch), restoring the entry backend afterwards.
class RngBackendTest : public ::testing::TestWithParam<planeops::Backend> {
 protected:
  void SetUp() override {
    if (!planeops::backend_available(GetParam())) {
      GTEST_SKIP() << planeops::to_string(GetParam())
                   << " backend not supported on this host";
    }
    ASSERT_TRUE(planeops::set_backend(GetParam()));
  }
  void TearDown() override { planeops::set_backend(prev_); }

 private:
  planeops::Backend prev_ = planeops::active_backend();
};

TEST_P(RngBackendTest, FirstMillionDrawsMatchStdEngineAcrossSeeds) {
  for (const std::uint64_t seed :
       {std::uint64_t{5489}, std::uint64_t{0}, std::uint64_t{1},
        std::uint64_t{0x9E3779B97F4A7C15ULL}}) {
    std::mt19937_64 ref(seed);
    BlockRng rng(seed);
    for (int i = 0; i < 1000000; ++i) {
      ASSERT_EQ(rng(), ref()) << "seed " << seed << " draw " << i;
    }
  }
}

TEST_P(RngBackendTest, DefaultConstructionMatchesStdEngine) {
  std::mt19937_64 ref;
  BlockRng rng;
  for (int i = 0; i < 10000; ++i) ASSERT_EQ(rng(), ref()) << "draw " << i;
}

TEST_P(RngBackendTest, SeedSeqConstructionMatchesStdEngine) {
  {
    std::seed_seq ref_seq{1u, 2u, 3u, 4u};
    std::seed_seq our_seq{1u, 2u, 3u, 4u};
    std::mt19937_64 ref(ref_seq);
    BlockRng rng(our_seq);
    for (int i = 0; i < 100000; ++i) ASSERT_EQ(rng(), ref()) << "draw " << i;
  }
  {
    // Empty seed_seq: generate() falls back to its fixed pattern.
    std::seed_seq ref_seq;
    std::seed_seq our_seq;
    std::mt19937_64 ref(ref_seq);
    BlockRng rng(our_seq);
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(rng(), ref()) << "draw " << i;
  }
}

TEST_P(RngBackendTest, MakeStreamRngMatchesStdEngineUnderSameSeedSeq) {
  // make_stream_rng is the one shared seeding helper (make_shard_rng
  // delegates to it): its stream must equal a std engine built from the
  // identical seed_seq, for several (seed, stream) pairs including ones
  // that exercise the high halves.
  const std::uint64_t seeds[] = {1, 42, 0xFFFFFFFF00000001ULL};
  const std::uint64_t streams[] = {0, 1, 7, 0x100000000ULL};
  for (const std::uint64_t seed : seeds) {
    for (const std::uint64_t stream : streams) {
      std::seed_seq sequence{
          static_cast<std::uint32_t>(seed), static_cast<std::uint32_t>(seed >> 32),
          static_cast<std::uint32_t>(stream), static_cast<std::uint32_t>(stream >> 32)};
      std::mt19937_64 ref(sequence);
      BlockRng rng = make_stream_rng(seed, stream);
      for (int i = 0; i < 10000; ++i) {
        ASSERT_EQ(rng(), ref()) << "seed " << seed << " stream " << stream << " draw " << i;
      }
    }
  }
}

/// Seed sequence yielding all-zero words: exercises the [rand.eng.mers]
/// degenerate-state fixup (state word 0 pinned to 2^63).  std::seed_seq can
/// never produce this, so a hand-rolled sequence drives both engines.
struct ZeroSeedSeq {
  using result_type = std::uint32_t;
  template <typename It>
  void generate(It first, It last) {
    for (; first != last; ++first) *first = 0;
  }
};

TEST_P(RngBackendTest, AllZeroSeedSequenceFixupMatchesStdEngine) {
  ZeroSeedSeq ref_seq, our_seq;
  std::mt19937_64 ref(ref_seq);
  BlockRng rng(our_seq);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(rng(), ref()) << "draw " << i;
}

TEST_P(RngBackendTest, GenerateBlockStraddlesBlockBoundaries) {
  // Counts around the 312-word state size, plus 624 (exactly two blocks)
  // and a couple of odd sizes; after each bulk pull the per-call stream
  // must still be aligned with the std engine (interleaving contract).
  for (const std::size_t count : {std::size_t{311}, std::size_t{312}, std::size_t{313},
                                  std::size_t{624}, std::size_t{1}, std::size_t{1000}}) {
    for (const std::size_t warmup : {std::size_t{0}, std::size_t{5}, std::size_t{311}}) {
      std::mt19937_64 ref(99);
      BlockRng rng(99);
      for (std::size_t i = 0; i < warmup; ++i) ASSERT_EQ(rng(), ref());
      std::vector<std::uint64_t> buf(count);
      rng.generate_block(buf.data(), count);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(buf[i], ref()) << "count " << count << " warmup " << warmup
                                 << " word " << i;
      }
      for (int i = 0; i < 700; ++i) {
        ASSERT_EQ(rng(), ref()) << "post-block draw " << i;
      }
    }
  }
}

TEST_P(RngBackendTest, GenerateBlockZeroCountIsANoOp) {
  std::mt19937_64 ref(3);
  BlockRng rng(3);
  rng.generate_block(nullptr, 0);
  for (int i = 0; i < 10; ++i) ASSERT_EQ(rng(), ref());
}

TEST_P(RngBackendTest, DiscardMatchesStdEngine) {
  for (const unsigned long long skip : {1ull, 311ull, 312ull, 313ull, 12345ull}) {
    std::mt19937_64 ref(17);
    BlockRng rng(17);
    ref.discard(skip);
    rng.discard(skip);
    for (int i = 0; i < 100; ++i) ASSERT_EQ(rng(), ref()) << "skip " << skip;
  }
}

TEST_P(RngBackendTest, ReseedingResetsTheStream) {
  BlockRng rng(1);
  for (int i = 0; i < 500; ++i) (void)rng();
  rng.seed(123);
  std::mt19937_64 ref(123);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(rng(), ref()) << "draw " << i;
}

TEST_P(RngBackendTest, FeedsStdDistributionsLikeTheStdEngine) {
  // The Gaussian sources hand BlockRng to std::normal_distribution; equal
  // engines must induce equal variates (identical consumption pattern).
  std::mt19937_64 ref(2026);
  BlockRng rng(2026);
  std::normal_distribution<double> ref_dist(0.0, 4294967296.0);
  std::normal_distribution<double> our_dist(0.0, 4294967296.0);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(our_dist(rng), ref_dist(ref)) << "variate " << i;
  }
}

// ---- GaussianBlockSampler ----------------------------------------------------

/// Bit-exact variate comparison (== would equate 0.0 and -0.0).
::testing::AssertionResult same_variate(double got, double want) {
  if (std::bit_cast<std::uint64_t>(got) == std::bit_cast<std::uint64_t>(want)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << got << " != " << want;
}

/// The sampler's buffer: BlockRng words per refill.
constexpr std::uint64_t kSamplerBufferWords = 2 * BlockRng::kStateWords;

TEST_P(RngBackendTest, GaussianFillMatchesPerCallAcrossBufferBoundaries) {
  // fill(n) must be exactly n operator() calls — values, BlockRng
  // consumption and the stream that follows — for n below, at and across
  // the 624-word buffer and the 8-word chunk.
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{9},
                              std::size_t{128}, std::size_t{600}, std::size_t{623},
                              std::size_t{624}, std::size_t{625}, std::size_t{1248},
                              std::size_t{1249}, std::size_t{5000}}) {
    BlockRng bulk_rng(77), call_rng(77);
    GaussianBlockSampler bulk, call;
    std::vector<double> got(n);
    bulk.fill(bulk_rng, got.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(same_variate(got[i], call(call_rng))) << "n " << n << " variate " << i;
    }
    EXPECT_EQ(bulk_rng.words_drawn(), call_rng.words_drawn()) << "n " << n;
    ASSERT_TRUE(same_variate(bulk(bulk_rng), call(call_rng))) << "n " << n << " next";
  }
}

TEST_P(RngBackendTest, GaussianFillInterleavesWithPerCallMidBuffer) {
  // A script of bulk fills (count > 0) and single operator() calls (0)
  // against a pure per-call reference: every fill starts mid-buffer, some
  // end exactly on the buffer edge, and the last spans several refills.
  const std::size_t script[] = {5, 0, 613, 0, 0, 9, 0, 1250, 3, 0, 700, 0};
  BlockRng mixed_rng(2027), call_rng(2027);
  GaussianBlockSampler mixed, call;
  std::size_t variate = 0;
  for (const std::size_t count : script) {
    std::vector<double> got(count == 0 ? 1 : count);
    if (count == 0) {
      got[0] = mixed(mixed_rng);
    } else {
      mixed.fill(mixed_rng, got.data(), count);
    }
    for (const double v : got) {
      ASSERT_TRUE(same_variate(v, call(call_rng))) << "variate " << variate;
      ++variate;
    }
    ASSERT_EQ(mixed_rng.words_drawn(), call_rng.words_drawn()) << "after variate " << variate;
  }
}

/// A word the ziggurat's layer test rejects, at a known place in a pristine
/// sampler's first buffer when the whole buffer is walked by one fill().
struct SlowPathCase {
  std::uint64_t seed;   // BlockRng(seed)
  std::size_t variate;  // index of the variate whose candidate word it is
  bool tail;            // iz == 0 tail (else the wedge test)
  bool last_word;       // buffer word 623, the refill edge
};

// Found by walking the raw streams with the scalar ziggurat:
//  * seed 1:    tail word at buffer word 495, lane 2 of an 8-word chunk;
//  * seed 153:  wedge word at buffer word 623, lane 7 of the last chunk;
//  * seed 1102: tail word at buffer word 623, in the walk's scalar
//    remainder (the run since the previous slow path is not a multiple
//    of 8).
// Every seed also hits dozens of wedge words inside chunks.
constexpr SlowPathCase kSlowPathCases[] = {
    {1, 478, true, false},
    {153, 600, false, true},
    {1102, 606, true, true},
};

TEST_P(RngBackendTest, GaussianFillHandsRejectedWordsToTheSlowPath) {
  constexpr double kTailStart = 3.6541528853610088;  // ziggurat R: |x| > R only via the tail
  constexpr std::size_t kVariates = 2 * kSamplerBufferWords;
  for (const SlowPathCase& c : kSlowPathCases) {
    BlockRng call_rng(c.seed);
    GaussianBlockSampler call;
    std::vector<double> want(kVariates);
    std::vector<std::uint64_t> drawn(kVariates);  // words drawn after each variate
    for (std::size_t i = 0; i < kVariates; ++i) {
      want[i] = call(call_rng);
      drawn[i] = call_rng.words_drawn();
    }
    // The case still sits where the comment says: a tail variate lies
    // beyond R, and a last-word candidate forces the refill inside its
    // own variate.
    if (c.tail) {
      EXPECT_GT(std::fabs(want[c.variate]), kTailStart) << "seed " << c.seed;
    }
    if (c.last_word) {
      EXPECT_EQ(drawn[c.variate - 1], kSamplerBufferWords) << "seed " << c.seed;
      EXPECT_EQ(drawn[c.variate], 2 * kSamplerBufferWords) << "seed " << c.seed;
    }

    BlockRng bulk_rng(c.seed);
    GaussianBlockSampler bulk;
    std::vector<double> got(kVariates);
    bulk.fill(bulk_rng, got.data(), kVariates);
    for (std::size_t i = 0; i < kVariates; ++i) {
      ASSERT_TRUE(same_variate(got[i], want[i])) << "seed " << c.seed << " variate " << i;
    }
    EXPECT_EQ(bulk_rng.words_drawn(), call_rng.words_drawn()) << "seed " << c.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, RngBackendTest,
                         ::testing::ValuesIn(available_backends()),
                         [](const ::testing::TestParamInfo<planeops::Backend>& info) {
                           return std::string(planeops::to_string(info.param));
                         });

// Statistical evidence that the ziggurat stream is standard normal (the
// bit-identity pins only show it did not change).  10^6 variates per
// stream from make_stream_rng at three fixed seeds, each held to a
// significance level of 0.001:
//  * Kolmogorov-Smirnov against Phi: D * sqrt(n) below the Kolmogorov
//    distribution's 0.999 quantile, 1.9495;
//  * chi-square over 100 bins equiprobable under Phi: the statistic below
//    the chi-square(99) 0.999 quantile, 148.23.
TEST(GaussianSamplerStatsTest, StreamIsStandardNormal) {
  constexpr std::size_t kVariates = 1000000;
  constexpr std::size_t kBins = 100;
  constexpr double kKsCritical = 1.9495;
  constexpr double kChiSquareCritical = 148.23;
  const auto phi = [](double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); };
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3}}) {
    BlockRng rng = make_stream_rng(seed, 0);
    GaussianBlockSampler sampler;
    std::vector<double> x(kVariates);
    sampler.fill(rng, x.data(), x.size());
    std::sort(x.begin(), x.end());

    double d = 0.0;
    std::vector<double> counts(kBins, 0.0);
    for (std::size_t i = 0; i < kVariates; ++i) {
      const double cdf = phi(x[i]);
      d = std::max({d, static_cast<double>(i + 1) / kVariates - cdf,
                    cdf - static_cast<double>(i) / kVariates});
      counts[std::min(kBins - 1, static_cast<std::size_t>(cdf * kBins))] += 1.0;
    }
    const double expected = static_cast<double>(kVariates) / kBins;
    double chi_square = 0.0;
    for (const double c : counts) chi_square += (c - expected) * (c - expected) / expected;

    EXPECT_LT(d * std::sqrt(static_cast<double>(kVariates)), kKsCritical) << "seed " << seed;
    EXPECT_LT(chi_square, kChiSquareCritical) << "seed " << seed;
  }
}

// The ziggurat's tail: |x| > R comes only from the base strip's
// exponential-majorant rejection, a path the bulk normality checks above
// barely sample (~260 of 10^6 variates).  10^7 variates per stream from
// make_stream_rng at three fixed seeds:
//  * the count of |x| > R inside a 5-sigma Wilson interval of 2 * Phibar(R);
//  * Kolmogorov-Smirnov of those ~2600 |x| against the conditional tail CDF
//    1 - Phibar(t) / Phibar(R), at a significance level of 0.001 (D * sqrt(n)
//    below the Kolmogorov distribution's 0.999 quantile, 1.9495).
TEST(GaussianSamplerStatsTest, TailBeyondRIsTheNormalTail) {
  constexpr double kZigR = 3.6541528853610088;
  constexpr std::size_t kVariates = 10000000;
  constexpr std::size_t kChunk = 1 << 16;
  constexpr double kKsCritical = 1.9495;
  const auto phibar = [](double t) { return 0.5 * std::erfc(t / std::sqrt(2.0)); };
  const double tail_mass = phibar(kZigR);
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3}}) {
    BlockRng rng = make_stream_rng(seed, 0);
    GaussianBlockSampler sampler;
    std::vector<double> chunk(kChunk);
    std::vector<double> tail;
    for (std::size_t done = 0; done < kVariates; done += kChunk) {
      const std::size_t n = std::min(kChunk, kVariates - done);
      sampler.fill(rng, chunk.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        if (std::fabs(chunk[i]) > kZigR) tail.push_back(std::fabs(chunk[i]));
      }
    }
    EXPECT_TRUE(harness::wilson_interval(tail.size(), kVariates, 5.0).contains(2 * tail_mass))
        << "seed " << seed << ": " << tail.size() << " of " << kVariates << " beyond R";

    std::sort(tail.begin(), tail.end());
    const double n = static_cast<double>(tail.size());
    double d = 0.0;
    for (std::size_t i = 0; i < tail.size(); ++i) {
      const double cdf = 1.0 - phibar(tail[i]) / tail_mass;
      d = std::max({d, static_cast<double>(i + 1) / n - cdf, cdf - static_cast<double>(i) / n});
    }
    EXPECT_LT(d * std::sqrt(n), kKsCritical) << "seed " << seed << ", " << tail.size()
                                             << " tail variates";
  }
}

TEST(RngAccountingTest, WordsDrawnCountsEveryConsumptionPath) {
  BlockRng rng(11);
  EXPECT_EQ(rng.words_drawn(), 0u);
  for (int i = 0; i < 7; ++i) (void)rng();
  EXPECT_EQ(rng.words_drawn(), 7u);

  // generate_block consumes exactly its word count, at any alignment
  // (including spans crossing the 312-word block boundary).
  std::vector<std::uint64_t> buf(500);
  rng.generate_block(buf.data(), buf.size());
  EXPECT_EQ(rng.words_drawn(), 507u);

  // discard counts too — the skipped words are consumed stream positions.
  rng.discard(1000);
  EXPECT_EQ(rng.words_drawn(), 1507u);
  (void)rng();
  EXPECT_EQ(rng.words_drawn(), 1508u);

  // Reseeding resets the account along with the stream.
  rng.seed(11);
  EXPECT_EQ(rng.words_drawn(), 0u);
}

TEST(RngCopySemanticsTest, CopyConstructionSnapshotsTheStream) {
  // Copying from a non-const generator must pick the copy constructor (as
  // it does for std::mt19937_64), not the SeedSeq template — both copies
  // then continue the identical stream from the snapshot point.
  BlockRng original(31);
  for (int i = 0; i < 500; ++i) (void)original();
  BlockRng copy(original);
  BlockRng assigned;
  assigned = original;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t expected = original();
    ASSERT_EQ(copy(), expected) << "draw " << i;
    ASSERT_EQ(assigned(), expected) << "draw " << i;
  }
}

TEST(RngCrossBackendTest, ScalarAndSimdTwistProduceIdenticalStreams) {
  // Direct backend-vs-backend pin (independent of the std engine), with a
  // backend switch mid-stream: a live generator must continue the exact
  // sequence when dispatch changes under it.
  const auto backends = available_backends();
  planeops::Backend prev = planeops::active_backend();
  ASSERT_TRUE(planeops::set_backend(planeops::Backend::kScalar));
  BlockRng oracle(7);
  std::vector<std::uint64_t> expected(5000);
  oracle.generate_block(expected.data(), expected.size());
  for (const auto backend : backends) {
    ASSERT_TRUE(planeops::set_backend(backend));
    BlockRng rng(7);
    std::vector<std::uint64_t> got(expected.size());
    rng.generate_block(got.data(), got.size());
    EXPECT_EQ(got, expected) << planeops::to_string(backend);
  }
  if (backends.size() > 1) {
    ASSERT_TRUE(planeops::set_backend(planeops::Backend::kScalar));
    BlockRng rng(7);
    std::vector<std::uint64_t> head(1000), tail(4000);
    rng.generate_block(head.data(), head.size());
    ASSERT_TRUE(planeops::set_backend(backends.back()));
    rng.generate_block(tail.data(), tail.size());
    for (std::size_t i = 0; i < head.size(); ++i) ASSERT_EQ(head[i], expected[i]);
    for (std::size_t i = 0; i < tail.size(); ++i) {
      ASSERT_EQ(tail[i], expected[head.size() + i]) << "post-switch word " << i;
    }
  }
  planeops::set_backend(prev);
}

}  // namespace
}  // namespace vlcsa::arith
