// Tests for the bit-sliced batch layer: the 64x64 bit-matrix transpose, the
// ApInt <-> bit-plane conversions, the word-level Kogge-Stone prefix, and
// the OperandSource::fill_batch stream contract (fill_batch must consume
// the RNG exactly like lanes() next() calls and produce the same samples,
// at any lane width and in any sequence of widths — the foundation of the
// batched pipeline's bit-identical-counters guarantee), and the uniform
// source's superblock layout (an 8-word fill is the raw RNG stream).

#include "arith/bitslice.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <tuple>
#include <vector>

#include "arith/apint.hpp"
#include "arith/distributions.hpp"
#include "arith/planeops.hpp"

namespace vlcsa::arith {
namespace {

TEST(Transpose64x64Test, SingleBitLandsTransposed) {
  for (const auto& [r, c] : {std::pair{0, 0}, {0, 63}, {63, 0}, {3, 5}, {31, 32}, {40, 17}}) {
    std::uint64_t block[64] = {};
    block[r] = std::uint64_t{1} << c;
    planeops::transpose_64x64(block);
    for (int row = 0; row < 64; ++row) {
      EXPECT_EQ(block[row], row == c ? std::uint64_t{1} << r : 0)
          << "bit (" << r << "," << c << "), row " << row;
    }
  }
}

TEST(Transpose64x64Test, DoubleTransposeIsIdentity) {
  vlcsa::arith::BlockRng rng(1);
  std::uint64_t block[64], orig[64];
  for (int i = 0; i < 64; ++i) orig[i] = block[i] = rng();
  planeops::transpose_64x64(block);
  planeops::transpose_64x64(block);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(block[i], orig[i]);
}

TEST(Transpose64x64Test, MatchesNaiveBitGather) {
  vlcsa::arith::BlockRng rng(2);
  std::uint64_t block[64];
  for (auto& row : block) row = rng();
  std::uint64_t expected[64] = {};
  for (int r = 0; r < 64; ++r) {
    for (int c = 0; c < 64; ++c) {
      expected[c] |= ((block[r] >> c) & 1) << r;
    }
  }
  planeops::transpose_64x64(block);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(block[i], expected[i]);
}

class TransposeToPlanesTest : public ::testing::TestWithParam<int> {};

TEST_P(TransposeToPlanesTest, PlanesMatchSampleBits) {
  const int width = GetParam();
  vlcsa::arith::BlockRng rng(3);
  std::vector<ApInt> samples;
  for (int j = 0; j < 64; ++j) samples.push_back(ApInt::random(width, rng));
  std::vector<std::uint64_t> planes(static_cast<std::size_t>(width));
  transpose_to_planes(samples.data(), 64, width, planes.data());
  for (int bit = 0; bit < width; ++bit) {
    for (int j = 0; j < 64; ++j) {
      ASSERT_EQ((planes[static_cast<std::size_t>(bit)] >> j) & 1,
                static_cast<std::uint64_t>(samples[static_cast<std::size_t>(j)].bit(bit)))
          << "bit " << bit << " lane " << j;
    }
  }
}

TEST_P(TransposeToPlanesTest, ShortCountZeroPadsHighLanes) {
  const int width = GetParam();
  vlcsa::arith::BlockRng rng(4);
  std::vector<ApInt> samples;
  for (int j = 0; j < 10; ++j) samples.push_back(ApInt::random(width, rng));
  std::vector<std::uint64_t> planes(static_cast<std::size_t>(width), ~std::uint64_t{0});
  transpose_to_planes(samples.data(), 10, width, planes.data());
  for (int bit = 0; bit < width; ++bit) {
    EXPECT_EQ(planes[static_cast<std::size_t>(bit)] >> 10, 0u) << "bit " << bit;
  }
  EXPECT_EQ(plane_lane(planes.data(), width, 3), samples[3]);
}

INSTANTIATE_TEST_SUITE_P(Widths, TransposeToPlanesTest,
                         ::testing::Values(1, 13, 63, 64, 65, 128, 130));

TEST(BitSlicedBatchTest, LoadLaneRoundtrip) {
  const int width = 100;
  for (const int lane_words : {1, 2, 4}) {
    vlcsa::arith::BlockRng rng(5);
    std::vector<ApInt> a, b;
    for (int j = 0; j < 64 * lane_words; ++j) {
      a.push_back(ApInt::random(width, rng));
      b.push_back(ApInt::random(width, rng));
    }
    BitSlicedBatch batch(width, lane_words);
    ASSERT_EQ(batch.lanes(), 64 * lane_words);
    batch.load(a, b);
    for (int j = 0; j < batch.lanes(); ++j) {
      const auto [la, lb] = batch.lane(j);
      ASSERT_EQ(la, a[static_cast<std::size_t>(j)]) << "W " << lane_words << " lane " << j;
      ASSERT_EQ(lb, b[static_cast<std::size_t>(j)]) << "W " << lane_words << " lane " << j;
    }
  }
}

TEST(BitSlicedBatchTest, LaneAccessorRejectsOutOfRangeLanes) {
  BitSlicedBatch batch(8, 2);
  EXPECT_THROW((void)batch.lane(-1), std::invalid_argument);
  EXPECT_THROW((void)batch.lane(128), std::invalid_argument);
  EXPECT_NO_THROW((void)batch.lane(127));
}

TEST(BitSlicedBatchTest, PlaneStorageIsCacheLineAligned) {
  BitSlicedBatch batch(130, 4);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(batch.a()) % planeops::kPlaneAlignment, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(batch.b()) % planeops::kPlaneAlignment, 0u);
}

TEST(BitSlicedBatchTest, PartialLoadZeroPadsHighLanes) {
  const int width = 40;
  vlcsa::arith::BlockRng rng(8);
  std::vector<ApInt> a, b;
  for (int j = 0; j < 70; ++j) {  // straddles the first lane-word boundary
    a.push_back(ApInt::random(width, rng));
    b.push_back(ApInt::random(width, rng));
  }
  BitSlicedBatch batch(width, 2);
  batch.load(a, b);
  for (int j = 0; j < 70; ++j) {
    ASSERT_EQ(batch.lane(j).first, a[static_cast<std::size_t>(j)]) << "lane " << j;
  }
  for (int j = 70; j < batch.lanes(); ++j) {
    ASSERT_EQ(batch.lane(j).first, ApInt(width)) << "lane " << j;
    ASSERT_EQ(batch.lane(j).second, ApInt(width)) << "lane " << j;
  }
  EXPECT_THROW(batch.load(std::vector<ApInt>(129, ApInt(width)),
                          std::vector<ApInt>(129, ApInt(width))),
               std::invalid_argument);
}

TEST(BitSlicedBatchTest, LoadRejectsMismatchedCounts) {
  BitSlicedBatch batch(8);
  std::vector<ApInt> a(3, ApInt(8)), b(2, ApInt(8));
  EXPECT_THROW(batch.load(a, b), std::invalid_argument);
}

// The bit-plane layout carries exact addition: a word-level ripple,
// carry = g | (p & carry) per plane group, gives every lane the carries of
// ApInt::add.  This is the recurrence the carry-chain sweeps in planeops run.
class PlaneRippleCarryTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PlaneRippleCarryTest, LaneCarriesMatchApIntAdd) {
  const auto [width, lane_words] = GetParam();
  vlcsa::arith::BlockRng rng(6);
  std::vector<ApInt> a, b;
  for (int j = 0; j < 64 * lane_words; ++j) {
    a.push_back(ApInt::random(width, rng));
    b.push_back(ApInt::random(width, rng));
  }
  BitSlicedBatch batch(width, lane_words);
  batch.load(a, b);
  const std::size_t lw = static_cast<std::size_t>(lane_words);
  planeops::PlaneVec carry(static_cast<std::size_t>(width) * lw);
  for (std::size_t w = 0; w < lw; ++w) {
    std::uint64_t c = 0;
    for (std::size_t i = w; i < carry.size(); i += lw) {
      c = (batch.a()[i] & batch.b()[i]) | ((batch.a()[i] ^ batch.b()[i]) & c);
      carry[i] = c;
    }
  }
  for (int j = 0; j < batch.lanes(); ++j) {
    const auto exact = ApInt::add(a[static_cast<std::size_t>(j)], b[static_cast<std::size_t>(j)]);
    const ApInt& aj = a[static_cast<std::size_t>(j)];
    const ApInt& bj = b[static_cast<std::size_t>(j)];
    const int lane_word = j / kBatchLanes;
    const int lane_bit = j % kBatchLanes;
    for (int i = 0; i < width; ++i) {
      // Carry out of bit i == carry into bit i+1 == p(i+1) ^ sum(i+1); the
      // top bit's carry-out is the reported carry_out.
      const bool expected =
          i == width - 1 ? exact.carry_out
                         : (aj.bit(i + 1) ^ bj.bit(i + 1) ^ exact.sum.bit(i + 1));
      const std::uint64_t word =
          carry[static_cast<std::size_t>(i) * lw + static_cast<std::size_t>(lane_word)];
      ASSERT_EQ((word >> lane_bit) & 1, static_cast<std::uint64_t>(expected))
          << "width " << width << " W " << lane_words << " lane " << j << " bit " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WidthsByLaneWords, PlaneRippleCarryTest,
                         ::testing::Combine(::testing::Values(1, 2, 7, 64, 65, 130),
                                            ::testing::Values(1, 2, 4)));

// fill_batch contract: same samples, same RNG consumption as lanes() x next().
class FillBatchTest
    : public ::testing::TestWithParam<std::tuple<InputDistribution, int, int>> {};

TEST_P(FillBatchTest, MatchesScalarStreamAndRngState) {
  const auto [dist, width, lane_words] = GetParam();
  const auto proto = make_source(dist, width);

  vlcsa::arith::BlockRng rng_batch(99), rng_scalar(99);
  BitSlicedBatch batch(width, lane_words);
  const auto batch_source = proto->clone();
  batch_source->fill_batch(rng_batch, batch);

  const auto scalar_source = proto->clone();
  for (int j = 0; j < batch.lanes(); ++j) {
    const auto [a, b] = scalar_source->next(rng_scalar);
    const auto [la, lb] = batch.lane(j);
    ASSERT_EQ(la, a) << proto->name() << " width " << width << " lane " << j;
    ASSERT_EQ(lb, b) << proto->name() << " width " << width << " lane " << j;
  }
  // Identical consumption: the next raw draw must agree.
  EXPECT_EQ(rng_batch(), rng_scalar())
      << proto->name() << " width " << width << " W " << lane_words;
}

INSTANTIATE_TEST_SUITE_P(
    DistributionsByWidthByLaneWords, FillBatchTest,
    ::testing::Combine(::testing::Values(InputDistribution::kUniformUnsigned,
                                         InputDistribution::kUniformTwos,
                                         InputDistribution::kGaussianUnsigned,
                                         InputDistribution::kGaussianTwos),
                       ::testing::Values(12, 32, 64, 128, 130, 512),
                       ::testing::Values(1, 2, 4, 8, 16)));

// Successive fills at mixed lane widths continue one stream: a 4-word fill
// leaves the uniform source's superblock half consumed before the 8-word
// fill, the 16- and 3-word fills straddle superblocks, and the last 8-word
// fill starts on a superblock boundary (its zero-copy path).
class FillBatchSequenceTest
    : public ::testing::TestWithParam<std::tuple<InputDistribution, int>> {};

TEST_P(FillBatchSequenceTest, MixedLaneWordsMatchScalarStreamAndRngState) {
  const auto [dist, width] = GetParam();
  const auto proto = make_source(dist, width);
  BlockRng rng_batch(7), rng_scalar(7);
  const auto batch_source = proto->clone();
  const auto scalar_source = proto->clone();
  int sample = 0;
  for (const int lane_words : {4, 8, 1, 16, 3, 8}) {
    BitSlicedBatch batch(width, lane_words);
    batch_source->fill_batch(rng_batch, batch);
    for (int j = 0; j < batch.lanes(); ++j, ++sample) {
      const auto [a, b] = scalar_source->next(rng_scalar);
      const auto [la, lb] = batch.lane(j);
      ASSERT_EQ(la, a) << proto->name() << " width " << width << " sample " << sample;
      ASSERT_EQ(lb, b) << proto->name() << " width " << width << " sample " << sample;
    }
  }
  EXPECT_EQ(rng_batch(), rng_scalar()) << proto->name() << " width " << width;
}

INSTANTIATE_TEST_SUITE_P(
    DistributionsByWidth, FillBatchSequenceTest,
    ::testing::Combine(::testing::Values(InputDistribution::kUniformUnsigned,
                                         InputDistribution::kUniformTwos,
                                         InputDistribution::kGaussianUnsigned,
                                         InputDistribution::kGaussianTwos),
                       ::testing::Values(12, 130, 512)));

// uniform-plane-v2 layout pin: a superblock is 16n raw words in
// BitSlicedBatch's 8-lane-word layout, so a fresh source's 8-word fills are
// exactly the raw stream — a's planes, then b's — with nothing reordered.
class UniformSuperblockLayoutTest : public ::testing::TestWithParam<int> {};

TEST_P(UniformSuperblockLayoutTest, EightWordFillIsTheRawStream) {
  const int width = GetParam();
  UniformUnsignedSource source(width);
  BlockRng rng(11), raw_rng(11);
  BitSlicedBatch batch(width, UniformUnsignedSource::kSuperblockGroups);
  const std::size_t plane_words =
      static_cast<std::size_t>(width) * UniformUnsignedSource::kSuperblockGroups;
  std::vector<std::uint64_t> raw(plane_words);
  for (int superblock = 0; superblock < 2; ++superblock) {
    source.fill_batch(rng, batch);
    raw_rng.generate_block(raw.data(), raw.size());
    EXPECT_TRUE(std::equal(raw.begin(), raw.end(), batch.a())) << "superblock " << superblock;
    raw_rng.generate_block(raw.data(), raw.size());
    EXPECT_TRUE(std::equal(raw.begin(), raw.end(), batch.b())) << "superblock " << superblock;
  }
  EXPECT_EQ(rng(), raw_rng());
}

INSTANTIATE_TEST_SUITE_P(Widths, UniformSuperblockLayoutTest,
                         ::testing::Values(1, 12, 64, 130, 512));

}  // namespace
}  // namespace vlcsa::arith
