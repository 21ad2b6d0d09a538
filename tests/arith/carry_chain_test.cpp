#include "arith/carry_chain.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "arith/bitslice.hpp"
#include "arith/distributions.hpp"

namespace vlcsa::arith {
namespace {

ApInt bits8(const std::string& msb_first) { return ApInt::from_binary(8, msb_first); }

TEST(CarryChainLengths, NoGeneratesNoChains) {
  // p everywhere (a ^ b = 1, a & b = 0): no chain ever starts.
  const auto lengths = carry_chain_lengths(bits8("11111111"), bits8("00000000"));
  EXPECT_TRUE(lengths.empty());
}

TEST(CarryChainLengths, SingleGenerateNoPropagation) {
  // g at bit 0 only, kill above: one chain of length 1.
  const auto lengths = carry_chain_lengths(bits8("00000001"), bits8("00000001"));
  ASSERT_EQ(lengths.size(), 1u);
  EXPECT_EQ(lengths[0], 1);
}

TEST(CarryChainLengths, GenerateThenPropagateRun) {
  // a = 00011101, b = 00000111 (MSB first):
  //  bit0: 1,1 -> g   chain starts
  //  bit1: 0,1 -> p   chain extends
  //  bit2: 1,1 -> g   chain absorbed (length 2); a new chain starts here
  //  bit3: 1,0 -> p   extends
  //  bit4: 1,0 -> p   extends
  //  bit5..7: 0,0 -> k  absorbed (length 3)
  const auto lengths = carry_chain_lengths(bits8("00011101"), bits8("00000111"));
  ASSERT_EQ(lengths.size(), 2u);
  EXPECT_EQ(lengths[0], 2);
  EXPECT_EQ(lengths[1], 3);
}

TEST(CarryChainLengths, DefinitionIsOriginPlusPropagateRun) {
  // Explicit: g at bit 2, p at bits 3,4,5, k at 6.
  // a = 00111100? Build directly from p/g masks instead:
  //   a = g | p, b = g  gives a&b = g, a^b = p  (when g and p are disjoint).
  ApInt g(16), p(16);
  g.set_bit(2, true);
  p.set_bit(3, true);
  p.set_bit(4, true);
  p.set_bit(5, true);
  const ApInt a = g | p;
  const ApInt b = g;
  const auto lengths = carry_chain_lengths(a, b);
  ASSERT_EQ(lengths.size(), 1u);
  EXPECT_EQ(lengths[0], 4);  // origin + 3 propagating positions
  EXPECT_EQ(longest_carry_chain(a, b), 4);
}

TEST(CarryChainLengths, BackToBackGenerates) {
  ApInt g(8);
  g.set_bit(1, true);
  g.set_bit(2, true);
  const auto lengths = carry_chain_lengths(g, g);  // a = b = g pattern
  ASSERT_EQ(lengths.size(), 2u);
  EXPECT_EQ(lengths[0], 1);
  EXPECT_EQ(lengths[1], 1);
}

TEST(CarryChainLengths, ChainEndsAtWidth) {
  ApInt g(8), p(8);
  g.set_bit(5, true);
  p.set_bit(6, true);
  p.set_bit(7, true);
  const auto lengths = carry_chain_lengths(g | p, g);
  ASSERT_EQ(lengths.size(), 1u);
  EXPECT_EQ(lengths[0], 3);
}

TEST(CarryChainLengths, SignExtensionChainSpansWholeAdder) {
  // Small positive + small negative with positive result: the classic
  // VLCSA 2 motivator.  a = 7, b = -3 in 32-bit two's complement.
  // Bits: g@0, p@1, g@2, then p@3..p@31 (sign extension of b), so the long
  // chain starts at bit 2 and covers 30 positions.
  const auto a = ApInt::from_i64(32, 7);
  const auto b = ApInt::from_i64(32, -3);
  EXPECT_EQ(longest_carry_chain(a, b), 30);
}

TEST(CarryChainProfiler, RejectsBadWidth) {
  EXPECT_THROW(CarryChainProfiler(0), std::invalid_argument);
}

TEST(CarryChainProfiler, CountsAndFractionsAreConsistent) {
  CarryChainProfiler prof(16, ChainMetric::kAllChains);
  vlcsa::arith::BlockRng rng(5);
  for (int i = 0; i < 1000; ++i) {
    prof.record(ApInt::random(16, rng), ApInt::random(16, rng));
  }
  EXPECT_EQ(prof.additions(), 1000u);
  double total_fraction = 0.0;
  std::uint64_t total_count = 0;
  for (int l = 0; l <= 16; ++l) {
    total_fraction += prof.fraction(l);
    total_count += prof.counts()[static_cast<std::size_t>(l)];
  }
  EXPECT_EQ(total_count, prof.total());
  EXPECT_NEAR(total_fraction, 1.0, 1e-12);
  EXPECT_NEAR(prof.fraction_at_least(0), 1.0, 1e-12);
  EXPECT_GE(prof.fraction_at_least(1), prof.fraction_at_least(2));
}

TEST(CarryChainProfiler, UniformInputsMatchGeometricLaw) {
  // For uniform bits: P(chain length = L | chain) = 2^-(L-1) * 1/2 ... the
  // conditional run-length law.  Check the ratio of consecutive buckets ~ 2.
  CarryChainProfiler prof(32, ChainMetric::kAllChains);
  vlcsa::arith::BlockRng rng(17);
  for (int i = 0; i < 200000; ++i) {
    prof.record(ApInt::random(32, rng), ApInt::random(32, rng));
  }
  const double f1 = prof.fraction(1);
  const double f2 = prof.fraction(2);
  const double f3 = prof.fraction(3);
  EXPECT_NEAR(f1 / f2, 2.0, 0.15);
  EXPECT_NEAR(f2 / f3, 2.0, 0.25);
}

TEST(CarryChainProfiler, LongestMetricRecordsOnePerAddition) {
  CarryChainProfiler prof(16, ChainMetric::kLongestPerAdd);
  vlcsa::arith::BlockRng rng(7);
  for (int i = 0; i < 500; ++i) {
    prof.record(ApInt::random(16, rng), ApInt::random(16, rng));
  }
  EXPECT_EQ(prof.total(), 500u);
  EXPECT_EQ(prof.additions(), 500u);
}

TEST(CarryChainProfiler, LongestMetricMeanIsLogarithmic) {
  // Classic result: average longest chain in n-bit uniform addition is
  // O(log n); for n = 64 it sits in the mid-single digits.
  CarryChainProfiler prof(64, ChainMetric::kLongestPerAdd);
  vlcsa::arith::BlockRng rng(23);
  for (int i = 0; i < 50000; ++i) {
    prof.record(ApInt::random(64, rng), ApInt::random(64, rng));
  }
  EXPECT_GT(prof.mean_length(), 3.0);
  EXPECT_LT(prof.mean_length(), 9.0);
}

TEST(CarryChainProfiler, RecordLengthsClampsToWidth) {
  CarryChainProfiler prof(8, ChainMetric::kAllChains);
  prof.record_lengths({100});
  EXPECT_EQ(prof.counts()[8], 1u);
}

// ---- record_batch against per-lane record() --------------------------------

/// Asserts that record_batch over the first `valid` lanes of `batch` leaves
/// exactly the histogram that record() over those lanes, one by one, leaves
/// (a lane past `valid` changes neither).  Returns the per-lane oracle.
CarryChainProfiler expect_batch_matches_record(const BitSlicedBatch& batch, std::uint64_t valid,
                                               ChainMetric metric, const std::string& what) {
  CarryChainProfiler batched(batch.width(), metric);
  CarryChainProfiler scalar(batch.width(), metric);
  batched.record_batch(batch, valid);
  for (int lane = 0; lane < static_cast<int>(valid); ++lane) {
    const auto [a, b] = batch.lane(lane);
    scalar.record(a, b);
  }
  EXPECT_EQ(batched.counts(), scalar.counts()) << what;
  EXPECT_EQ(batched.total(), scalar.total()) << what;
  EXPECT_EQ(batched.additions(), valid) << what;
  return scalar;
}

/// The masked-batch sizes: a single lane, either side of the first word
/// boundary, one short of full, and full (those beyond the batch dropped).
std::vector<std::uint64_t> valid_counts(int lanes) {
  std::vector<std::uint64_t> out;
  for (const int valid : {1, 63, 64, 65, lanes - 1, lanes}) {
    if (valid >= 1 && valid <= lanes &&
        std::find(out.begin(), out.end(), static_cast<std::uint64_t>(valid)) == out.end()) {
      out.push_back(static_cast<std::uint64_t>(valid));
    }
  }
  return out;
}

/// Lanes cycling through the chain shapes the kernel must get right at
/// every width: a full-width chain (g_0 and every p above), back-to-back
/// generates at every bit, an all-ones sign extension (-1 plus a small
/// positive: g_0, then p or g the whole way up) and a uniform pair.
void load_forced_patterns(BitSlicedBatch& batch, BlockRng& rng) {
  const int width = batch.width();
  const ApInt one = ApInt::from_u64(width, 1);
  std::vector<ApInt> a, b;
  for (int lane = 0; lane < batch.lanes(); ++lane) {
    switch (lane % 4) {
      case 0:  // a = 1...1, b = 0...01: g at bit 0, p above
        a.push_back(ApInt::all_ones(width));
        b.push_back(one);
        break;
      case 1:  // a = b = 1...1: a generate at every bit
        a.push_back(ApInt::all_ones(width));
        b.push_back(ApInt::all_ones(width));
        break;
      case 2:  // -1 + a small positive value
        a.push_back(ApInt::all_ones(width));
        b.push_back(ApInt::from_u64(width, static_cast<std::uint64_t>(lane % 64 + 1)));
        break;
      default:
        a.push_back(ApInt::random(width, rng));
        b.push_back(ApInt::random(width, rng));
        break;
    }
  }
  batch.load(a, b);
}

class RecordBatchTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

std::string record_batch_name(const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  return "n" + std::to_string(std::get<0>(info.param)) + "_W" +
         std::to_string(std::get<1>(info.param));
}

// Every operand distribution, filled the way the Monte Carlo engine fills
// a batch, so every lane past `valid` holds a live-looking sample that
// must not count.
TEST_P(RecordBatchTest, MatchesPerLaneRecordOnEveryDistribution) {
  const auto [width, lane_words] = GetParam();
  BitSlicedBatch batch(width, lane_words);
  for (const InputDistribution dist :
       {InputDistribution::kUniformUnsigned, InputDistribution::kUniformTwos,
        InputDistribution::kGaussianUnsigned, InputDistribution::kGaussianTwos}) {
    const auto source = make_source(dist, width, {0.0, 1048576.0});
    BlockRng rng(41);
    source->fill_batch(rng, batch);
    for (const std::uint64_t valid : valid_counts(batch.lanes())) {
      for (const ChainMetric metric : {ChainMetric::kAllChains, ChainMetric::kLongestPerAdd}) {
        expect_batch_matches_record(batch, valid, metric,
                                    to_string(dist) + " valid " + std::to_string(valid));
      }
    }
  }
}

TEST_P(RecordBatchTest, MatchesPerLaneRecordOnForcedChains) {
  const auto [width, lane_words] = GetParam();
  BitSlicedBatch batch(width, lane_words);
  BlockRng rng(43);
  load_forced_patterns(batch, rng);
  for (const std::uint64_t valid : valid_counts(batch.lanes())) {
    for (const ChainMetric metric : {ChainMetric::kAllChains, ChainMetric::kLongestPerAdd}) {
      const CarryChainProfiler oracle = expect_batch_matches_record(
          batch, valid, metric, "forced, valid " + std::to_string(valid));
      // Lane 0's full-width chain is in every case.
      EXPECT_GT(oracle.counts()[static_cast<std::size_t>(width)], 0u) << "valid " << valid;
    }
  }
}

// Live lanes that never generate, and dead lanes (past `valid`) that
// generate at every bit: the batch must count only the former.
TEST_P(RecordBatchTest, LanesPastValidCountNothing) {
  const auto [width, lane_words] = GetParam();
  BitSlicedBatch batch(width, lane_words);
  for (const std::uint64_t valid : valid_counts(batch.lanes())) {
    std::vector<ApInt> a(static_cast<std::size_t>(batch.lanes()), ApInt(width));
    std::vector<ApInt> b = a;
    for (std::size_t lane = valid; lane < a.size(); ++lane) {
      a[lane] = ApInt::all_ones(width);
      b[lane] = ApInt::all_ones(width);
    }
    batch.load(a, b);
    for (const ChainMetric metric : {ChainMetric::kAllChains, ChainMetric::kLongestPerAdd}) {
      const CarryChainProfiler oracle = expect_batch_matches_record(
          batch, valid, metric, "dead lanes, valid " + std::to_string(valid));
      EXPECT_EQ(oracle.total(), metric == ChainMetric::kAllChains ? 0u : valid);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WidthsByLaneWords, RecordBatchTest,
                         ::testing::Combine(::testing::Values(1, 2, 5, 31, 32, 33, 63, 64, 65,
                                                              130),
                                            ::testing::Values(1, 3, 8, 16)),
                         record_batch_name);

TEST(CarryChainProfiler, RecordBatchRejectsBadShapes) {
  CarryChainProfiler prof(16);
  const BitSlicedBatch narrow(8, 1);
  EXPECT_THROW(prof.record_batch(narrow, 1), std::invalid_argument);
  const BitSlicedBatch batch(16, 2);
  EXPECT_THROW(prof.record_batch(batch, 129), std::invalid_argument);
  prof.record_batch(batch, 0);
  EXPECT_EQ(prof.additions(), 0u);
}

}  // namespace
}  // namespace vlcsa::arith
