#include "arith/distributions.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "arith/bitslice.hpp"
#include "arith/planeops.hpp"

namespace vlcsa::arith {
namespace {

TEST(Distributions, FactoryProducesAllKinds) {
  for (const auto dist :
       {InputDistribution::kUniformUnsigned, InputDistribution::kUniformTwos,
        InputDistribution::kGaussianUnsigned, InputDistribution::kGaussianTwos}) {
    const auto source = make_source(dist, 64);
    ASSERT_NE(source, nullptr);
    EXPECT_EQ(source->width(), 64);
    EXPECT_EQ(source->name(), to_string(dist));
  }
}

TEST(Distributions, SameSeedSameStream) {
  for (const auto dist :
       {InputDistribution::kUniformUnsigned, InputDistribution::kUniformTwos,
        InputDistribution::kGaussianUnsigned, InputDistribution::kGaussianTwos}) {
    const auto s1 = make_source(dist, 64);
    const auto s2 = make_source(dist, 64);
    vlcsa::arith::BlockRng r1(99), r2(99);
    for (int i = 0; i < 20; ++i) {
      const auto [a1, b1] = s1->next(r1);
      const auto [a2, b2] = s2->next(r2);
      EXPECT_EQ(a1, a2);
      EXPECT_EQ(b1, b2);
    }
  }
}

TEST(Distributions, OperandsHaveRequestedWidth) {
  const auto source = make_source(InputDistribution::kGaussianTwos, 512);
  vlcsa::arith::BlockRng rng(3);
  const auto [a, b] = source->next(rng);
  EXPECT_EQ(a.width(), 512);
  EXPECT_EQ(b.width(), 512);
}

TEST(Distributions, UniformTwosCoversBothSigns) {
  UniformTwosSource source(64);
  vlcsa::arith::BlockRng rng(5);
  int negatives = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const auto [a, b] = source.next(rng);
    if (a.sign_bit()) ++negatives;
    if (b.sign_bit()) ++negatives;
  }
  // Roughly half of 2n operands should be negative.
  EXPECT_GT(negatives, n * 2 * 2 / 10);
  EXPECT_LT(negatives, n * 2 * 8 / 10);
}

TEST(Distributions, GaussianTwosIsSignExtendedSmallMagnitude) {
  // sigma = 2^32 on a 512-bit datapath: operands must be sign extensions of
  // ~33-bit values, i.e. bits far above 48 all equal the sign bit.
  GaussianSource source(512, GaussianParams{0.0, std::ldexp(1.0, 32)}, true);
  vlcsa::arith::BlockRng rng(7);
  for (int i = 0; i < 100; ++i) {
    const auto [a, b] = source.next(rng);
    for (const auto& v : {a, b}) {
      const bool sign = v.sign_bit();
      for (int bit = 64; bit < 512; bit += 37) {
        EXPECT_EQ(v.bit(bit), sign);
      }
    }
  }
}

TEST(Distributions, GaussianUnsignedNeverSetsFarHighBits) {
  GaussianSource source(512, GaussianParams{0.0, std::ldexp(1.0, 32)}, false);
  vlcsa::arith::BlockRng rng(11);
  for (int i = 0; i < 100; ++i) {
    const auto [a, b] = source.next(rng);
    EXPECT_LT(a.highest_set_bit(), 48);
    EXPECT_LT(b.highest_set_bit(), 48);
  }
}

TEST(Distributions, EncodeSignedSampleClampsSmallWidths) {
  EXPECT_EQ(encode_signed_sample(8, 1000.0).to_i64(), 127);
  EXPECT_EQ(encode_signed_sample(8, -1000.0).to_i64(), -128);
  EXPECT_EQ(encode_signed_sample(8, 3.4).to_i64(), 3);
  EXPECT_EQ(encode_signed_sample(8, -2.6).to_i64(), -3);
}

TEST(Distributions, EncodeUnsignedSampleTakesMagnitude) {
  EXPECT_EQ(encode_unsigned_sample(8, -5.0).to_u64(), 5u);
  EXPECT_EQ(encode_unsigned_sample(8, 300.0).to_u64(), 255u);
  EXPECT_EQ(encode_unsigned_sample(8, 0.4).to_u64(), 0u);
}

TEST(Distributions, GaussianTwosSignBalance) {
  GaussianSource source(64, GaussianParams{0.0, std::ldexp(1.0, 20)}, true);
  vlcsa::arith::BlockRng rng(13);
  int negatives = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const auto [a, b] = source.next(rng);
    if (a.sign_bit()) ++negatives;
    if (b.sign_bit()) ++negatives;
  }
  EXPECT_GT(negatives, n * 2 * 3 / 10);
  EXPECT_LT(negatives, n * 2 * 7 / 10);
}

TEST(Distributions, ToStringIsStable) {
  EXPECT_STREQ(to_string(InputDistribution::kUniformUnsigned).c_str(), "uniform-unsigned");
  EXPECT_STREQ(to_string(InputDistribution::kGaussianTwos).c_str(),
               "gaussian-twos-complement");
}

// The Gaussian fill's batch kernel (planeops::gaussian_to_planes) against
// next()'s scalar encode, lane by lane through plane_lane, on every
// available backend.  Lane words 3 and 13 leave columns to the four-word
// and one-word rows after the eight-word chunks.  Widths below 64 exercise the
// clamp, 64 the plain 64-bit encode, and 65/128 the planes above limb 0
// (sign masks for two's complement, zeros for magnitudes) that the paper's
// n = 64 workloads never reach.  The parameter sets cover the paper's
// sigma = 2^32 (which saturates widths 8 and 32), a sigma = 0 round-half-
// to-even tie (-2.5 -> -2), a mid-range mean with fractional offset, and a
// sigma of 1e17, where sigma * x is inexact and a fused multiply-add would
// round mean + sigma * x differently from next()'s separate multiply and
// add.
class GaussianEncodeTest
    : public ::testing::TestWithParam<std::tuple<InputDistribution, int, int>> {};

/// Restores the backend that was active when the test started.
struct BackendRestore {
  planeops::Backend prev = planeops::active_backend();
  ~BackendRestore() { planeops::set_backend(prev); }
};

TEST_P(GaussianEncodeTest, FillBatchLanesMatchNextOnEveryBackend) {
  const auto [dist, width, lane_words] = GetParam();
  const BackendRestore restore;
  const GaussianParams params_sets[] = {
      {0.0, std::ldexp(1.0, 32)}, {-2.5, 0.0}, {1000.5, 300.0}, {12345.0, 1e17}};
  for (const planeops::Backend backend :
       {planeops::Backend::kScalar, planeops::Backend::kAvx2, planeops::Backend::kAvx512}) {
    if (!planeops::set_backend(backend)) continue;
    for (const GaussianParams& params : params_sets) {
      const auto proto = make_source(dist, width, params);
      BlockRng rng_batch(21), rng_scalar(21);
      BitSlicedBatch batch(width, lane_words);
      proto->clone()->fill_batch(rng_batch, batch);
      const auto scalar_source = proto->clone();
      for (int j = 0; j < batch.lanes(); ++j) {
        const auto [a, b] = scalar_source->next(rng_scalar);
        ASSERT_EQ(plane_lane(batch.a(), width, j, lane_words), a)
            << planeops::to_string(backend) << " mean " << params.mean << " lane " << j;
        ASSERT_EQ(plane_lane(batch.b(), width, j, lane_words), b)
            << planeops::to_string(backend) << " mean " << params.mean << " lane " << j;
      }
      EXPECT_EQ(rng_batch(), rng_scalar()) << planeops::to_string(backend);
    }
  }
}

// 40 consecutive batches from one source and one generator, so the
// sampler's buffer refills and its slow-path words fall across batch
// boundaries: the planes of every batch match next() lane by lane.
TEST_P(GaussianEncodeTest, ConsecutiveFillBatchesMatchNextOnEveryBackend) {
  const auto [dist, width, lane_words] = GetParam();
  const BackendRestore restore;
  for (const planeops::Backend backend :
       {planeops::Backend::kScalar, planeops::Backend::kAvx2, planeops::Backend::kAvx512}) {
    if (!planeops::set_backend(backend)) continue;
    const auto batch_source = make_source(dist, width);
    const auto scalar_source = make_source(dist, width);
    BlockRng rng_batch(33), rng_scalar(33);
    BitSlicedBatch batch(width, lane_words);
    for (int call = 0; call < 40; ++call) {
      batch_source->fill_batch(rng_batch, batch);
      for (int j = 0; j < batch.lanes(); ++j) {
        const auto [a, b] = scalar_source->next(rng_scalar);
        ASSERT_EQ(plane_lane(batch.a(), width, j, lane_words), a)
            << planeops::to_string(backend) << " call " << call << " lane " << j;
        ASSERT_EQ(plane_lane(batch.b(), width, j, lane_words), b)
            << planeops::to_string(backend) << " call " << call << " lane " << j;
      }
    }
    EXPECT_EQ(rng_batch(), rng_scalar()) << planeops::to_string(backend);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SourcesByWidthByLaneWords, GaussianEncodeTest,
    ::testing::Combine(::testing::Values(InputDistribution::kGaussianUnsigned,
                                         InputDistribution::kGaussianTwos),
                       ::testing::Values(8, 32, 63, 64, 65, 128),
                       ::testing::Values(1, 3, 4, 8, 13, 16)));

// The two's-complement uniform fill against next(), lane by lane, over 40
// consecutive batches from one source and one generator: widths 1 and 2
// (the magnitude is all but empty), either side of one limb (31..33, 64,
// 65) and a three-limb width whose negations borrow across limbs (130).
class UniformTwosFillTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(UniformTwosFillTest, ConsecutiveFillBatchesMatchNext) {
  const auto [width, lane_words] = GetParam();
  UniformTwosSource batch_source(width), scalar_source(width);
  BlockRng rng_batch(35), rng_scalar(35);
  BitSlicedBatch batch(width, lane_words);
  for (int call = 0; call < 40; ++call) {
    batch_source.fill_batch(rng_batch, batch);
    for (int j = 0; j < batch.lanes(); ++j) {
      const auto [a, b] = scalar_source.next(rng_scalar);
      ASSERT_EQ(plane_lane(batch.a(), width, j, lane_words), a) << "call " << call << " lane " << j;
      ASSERT_EQ(plane_lane(batch.b(), width, j, lane_words), b) << "call " << call << " lane " << j;
    }
  }
  EXPECT_EQ(rng_batch(), rng_scalar());
}

INSTANTIATE_TEST_SUITE_P(WidthsByLaneWords, UniformTwosFillTest,
                         ::testing::Combine(::testing::Values(1, 2, 31, 32, 33, 64, 65, 130),
                                            ::testing::Values(1, 3, 8, 16)));

}  // namespace
}  // namespace vlcsa::arith
