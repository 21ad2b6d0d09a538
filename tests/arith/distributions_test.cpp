#include "arith/distributions.hpp"

#include <gtest/gtest.h>

#include <cmath>

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
  GaussianTwosSource source(512, GaussianParams{0.0, std::ldexp(1.0, 32)});
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
  GaussianUnsignedSource source(512, GaussianParams{0.0, std::ldexp(1.0, 32)});
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
  GaussianTwosSource source(64, GaussianParams{0.0, std::ldexp(1.0, 20)});
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

}  // namespace
}  // namespace vlcsa::arith
