#include "arith/apint.hpp"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

namespace vlcsa::arith {
namespace {

TEST(ApInt, DefaultConstructIsZeroWidthOne) {
  const ApInt v;
  EXPECT_EQ(v.width(), 1);
  EXPECT_TRUE(v.is_zero());
}

TEST(ApInt, FromU64TruncatesToWidth) {
  const ApInt v = ApInt::from_u64(4, 0xff);
  EXPECT_EQ(v.to_u64(), 0xfu);
}

TEST(ApInt, FromI64SignExtends) {
  const ApInt v = ApInt::from_i64(128, -1);
  EXPECT_EQ(v.popcount(), 128);
  const ApInt w = ApInt::from_i64(128, -2);
  EXPECT_EQ(w.popcount(), 127);
  EXPECT_FALSE(w.bit(0));
  EXPECT_TRUE(w.bit(127));
}

TEST(ApInt, FromLimbsTakesWholeLimbsAndDropsBitsAboveWidth) {
  const std::uint64_t limbs[] = {0x0123456789abcdefULL, ~std::uint64_t{0}};
  const ApInt v = ApInt::from_limbs(70, limbs);
  EXPECT_EQ(v.limb(0), limbs[0]);
  EXPECT_EQ(v.limb(1), 0x3fULL);
  EXPECT_EQ(v.popcount(), 32 + 6);
  EXPECT_THROW((void)ApInt::from_limbs(64, limbs), std::invalid_argument);
  EXPECT_THROW((void)ApInt::from_limbs(129, limbs), std::invalid_argument);
}

TEST(ApInt, AllOnes) {
  const ApInt v = ApInt::all_ones(70);
  EXPECT_EQ(v.popcount(), 70);
  EXPECT_EQ(v.highest_set_bit(), 69);
}

TEST(ApInt, FromBinaryMsbFirst) {
  const ApInt v = ApInt::from_binary(8, "1011");
  EXPECT_EQ(v.to_u64(), 0b1011u);
  EXPECT_EQ(v.to_binary(), "00001011");
}

TEST(ApInt, FromBinaryRejectsBadInput) {
  EXPECT_THROW(ApInt::from_binary(2, "101"), std::invalid_argument);
  EXPECT_THROW(ApInt::from_binary(8, "10x"), std::invalid_argument);
}

TEST(ApInt, BitAboveWidthReadsZero) {
  const ApInt v = ApInt::all_ones(10);
  EXPECT_TRUE(v.bit(9));
  EXPECT_FALSE(v.bit(10));
  EXPECT_FALSE(v.bit(1000));
}

TEST(ApInt, SetBitOutOfRangeThrows) {
  ApInt v(10);
  EXPECT_THROW(v.set_bit(10, true), std::out_of_range);
}

class ApIntWidthTest : public ::testing::TestWithParam<int> {};

TEST_P(ApIntWidthTest, AddMatchesNativeArithmetic) {
  const int width = GetParam();
  vlcsa::arith::BlockRng rng(7 + static_cast<std::uint64_t>(width));
  const std::uint64_t mask =
      width >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
  for (int iter = 0; iter < 500; ++iter) {
    const std::uint64_t ua = rng() & mask;
    const std::uint64_t ub = rng() & mask;
    const bool cin = (rng() & 1) != 0;
    const auto a = ApInt::from_u64(width, ua);
    const auto b = ApInt::from_u64(width, ub);
    const auto r = ApInt::add(a, b, cin);
    const unsigned __int128 wide =
        static_cast<unsigned __int128>(ua) + ub + (cin ? 1 : 0);
    if (width <= 64) {
      EXPECT_EQ(r.sum.to_u64(), static_cast<std::uint64_t>(wide) & mask);
      EXPECT_EQ(r.carry_out, ((wide >> width) & 1) != 0);
    } else {
      // Operands occupy only the low 64 bits: the wide sum is exact and the
      // adder carry-out (bit width-1) can never fire.
      EXPECT_EQ(r.sum.to_u64(), static_cast<std::uint64_t>(wide));
      EXPECT_EQ(r.sum.extract(64, 2), static_cast<std::uint64_t>(wide >> 64));
      EXPECT_FALSE(r.carry_out);
    }
  }
}

TEST_P(ApIntWidthTest, SubtractionIsTwosComplementAddition) {
  const int width = GetParam();
  vlcsa::arith::BlockRng rng(11 + static_cast<std::uint64_t>(width));
  for (int iter = 0; iter < 200; ++iter) {
    const auto a = ApInt::random(width, rng);
    const auto b = ApInt::random(width, rng);
    EXPECT_EQ(a - b, a + b.negated());
  }
}

TEST_P(ApIntWidthTest, NegationRoundTrips) {
  const int width = GetParam();
  vlcsa::arith::BlockRng rng(13 + static_cast<std::uint64_t>(width));
  for (int iter = 0; iter < 200; ++iter) {
    const auto a = ApInt::random(width, rng);
    EXPECT_EQ(a.negated().negated(), a);
    EXPECT_TRUE((a + a.negated()).is_zero());
  }
}

TEST_P(ApIntWidthTest, ShiftsMatchNative) {
  const int width = GetParam();
  if (width > 64) GTEST_SKIP() << "native reference limited to 64 bits";
  vlcsa::arith::BlockRng rng(17 + static_cast<std::uint64_t>(width));
  const std::uint64_t mask =
      width >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
  for (int iter = 0; iter < 200; ++iter) {
    const std::uint64_t ua = rng() & mask;
    const int amount = static_cast<int>(rng() % static_cast<std::uint64_t>(width + 4));
    const auto a = ApInt::from_u64(width, ua);
    const std::uint64_t shl_ref = amount >= width ? 0 : (ua << amount) & mask;
    const std::uint64_t shr_ref = amount >= width ? 0 : ua >> amount;
    EXPECT_EQ(a.shl(amount).to_u64(), shl_ref) << "width=" << width << " amt=" << amount;
    EXPECT_EQ(a.shr(amount).to_u64(), shr_ref) << "width=" << width << " amt=" << amount;
  }
}

TEST_P(ApIntWidthTest, BitwiseOpsMatchDeMorgan) {
  const int width = GetParam();
  vlcsa::arith::BlockRng rng(19 + static_cast<std::uint64_t>(width));
  for (int iter = 0; iter < 100; ++iter) {
    const auto a = ApInt::random(width, rng);
    const auto b = ApInt::random(width, rng);
    EXPECT_EQ(~(a & b), (~a | ~b));
    EXPECT_EQ(~(a | b), (~a & ~b));
    EXPECT_EQ(a ^ b, (a | b) & ~(a & b));
  }
}

TEST_P(ApIntWidthTest, CompareUnsignedIsTotalOrder) {
  const int width = GetParam();
  vlcsa::arith::BlockRng rng(23 + static_cast<std::uint64_t>(width));
  for (int iter = 0; iter < 100; ++iter) {
    const auto a = ApInt::random(width, rng);
    const auto b = ApInt::random(width, rng);
    const int ab = a.compare_unsigned(b);
    const int ba = b.compare_unsigned(a);
    EXPECT_EQ(ab, -ba);
    if (ab == 0) {
      EXPECT_EQ(a, b);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ApIntWidthTest,
                         ::testing::Values(1, 2, 7, 8, 31, 32, 33, 63, 64, 65, 127, 128, 200,
                                           256, 512));

TEST(ApInt, ExtractCrossesLimbBoundary) {
  ApInt v(130);
  v.set_bit(62, true);
  v.set_bit(63, true);
  v.set_bit(64, true);
  v.set_bit(66, true);
  // Bits 62..66 = 1,1,1,0,1 (LSB first) = 0b10111.
  EXPECT_EQ(v.extract(62, 5), 0b10111u);
}

TEST(ApInt, ExtractBeyondWidthReadsZero) {
  const ApInt v = ApInt::all_ones(10);
  EXPECT_EQ(v.extract(8, 4), 0b0011u);
  EXPECT_EQ(v.extract(10, 4), 0u);
  EXPECT_EQ(v.extract(100, 8), 0u);
}

TEST(ApInt, DepositExtractRoundTrip) {
  vlcsa::arith::BlockRng rng(29);
  for (int iter = 0; iter < 200; ++iter) {
    ApInt v(200);
    const int pos = static_cast<int>(rng() % 190);
    const int len = 1 + static_cast<int>(rng() % 10);
    const std::uint64_t bits = rng() & ((std::uint64_t{1} << len) - 1);
    v.deposit(pos, len, bits);
    EXPECT_EQ(v.extract(pos, len), bits);
  }
}

TEST(ApInt, DepositDropsOverhang) {
  ApInt v(8);
  v.deposit(6, 4, 0b1111);
  EXPECT_EQ(v.to_u64(), 0b11000000u);
}

TEST(ApInt, SignedCompareOrdersNegativesBelowPositives) {
  const auto neg = ApInt::from_i64(64, -5);
  const auto pos = ApInt::from_i64(64, 5);
  EXPECT_LT(neg.compare_signed(pos), 0);
  EXPECT_GT(pos.compare_signed(neg), 0);
  EXPECT_GT(neg.compare_unsigned(pos), 0);  // unsigned view flips
  const auto neg2 = ApInt::from_i64(64, -3);
  EXPECT_LT(neg.compare_signed(neg2), 0);  // -5 < -3
}

TEST(ApInt, ZextSextBehave) {
  const auto v = ApInt::from_i64(8, -2);  // 0xfe
  EXPECT_EQ(v.zext(16).to_u64(), 0xfeu);
  EXPECT_EQ(v.sext(16).to_u64(), 0xfffeu);
  EXPECT_EQ(v.sext(16).to_i64(), -2);
  EXPECT_EQ(v.zext(4).to_u64(), 0xeu);  // truncation
}

TEST(ApInt, ToI64RoundTripsSmallWidths) {
  for (const std::int64_t x : {-128L, -7L, -1L, 0L, 1L, 99L, 127L}) {
    EXPECT_EQ(ApInt::from_i64(8, x).to_i64(), x);
  }
}

TEST(ApInt, HexString) {
  EXPECT_EQ(ApInt::from_u64(16, 0xbeef).to_hex(), "beef");
  EXPECT_EQ(ApInt::from_u64(12, 0xbeef).to_hex(), "eef");
  EXPECT_EQ(ApInt::from_u64(13, 0x1eef).to_hex(), "1eef");
}

TEST(ApInt, HighestSetBit) {
  EXPECT_EQ(ApInt(64).highest_set_bit(), -1);
  EXPECT_EQ(ApInt::from_u64(64, 1).highest_set_bit(), 0);
  ApInt v(300);
  v.set_bit(257, true);
  EXPECT_EQ(v.highest_set_bit(), 257);
}

TEST(ApInt, WidthMismatchThrows) {
  const ApInt a(8);
  const ApInt b(9);
  EXPECT_THROW((void)(a + b), std::invalid_argument);
  EXPECT_THROW((void)(a & b), std::invalid_argument);
  EXPECT_THROW((void)a.compare_unsigned(b), std::invalid_argument);
}

// ---- PropagateGenerate ------------------------------------------------------

TEST(PropagateGenerate, GroupSignalsMatchBruteForce) {
  vlcsa::arith::BlockRng rng(31);
  const int width = 96;
  for (int iter = 0; iter < 100; ++iter) {
    const auto a = ApInt::random(width, rng);
    const auto b = ApInt::random(width, rng);
    const PropagateGenerate pg(a, b);
    for (int trial = 0; trial < 20; ++trial) {
      const int pos = static_cast<int>(rng() % 90);
      const int len = 1 + static_cast<int>(rng() % std::min(20, width - pos));
      // Brute force: propagate = all p bits; generate = carry out with cin 0.
      bool all_p = true;
      for (int i = pos; i < pos + len; ++i) all_p = all_p && pg.p.bit(i);
      bool carry = false;
      for (int i = pos; i < pos + len; ++i) {
        carry = pg.g.bit(i) || (pg.p.bit(i) && carry);
      }
      EXPECT_EQ(pg.group_propagate(pos, len), all_p);
      EXPECT_EQ(pg.group_generate(pos, len), carry);
    }
  }
}

TEST(PropagateGenerate, GroupGenerateMatchesWindowCarryOut) {
  // The group generate of [pos, pos+len) must equal the carry out of adding
  // the two window chunks with carry-in 0.
  vlcsa::arith::BlockRng rng(37);
  const int width = 128;
  for (int iter = 0; iter < 200; ++iter) {
    const auto a = ApInt::random(width, rng);
    const auto b = ApInt::random(width, rng);
    const PropagateGenerate pg(a, b);
    const int pos = static_cast<int>(rng() % 100);
    const int len = 1 + static_cast<int>(rng() % 28);
    const std::uint64_t aw = a.extract(pos, len);
    const std::uint64_t bw = b.extract(pos, len);
    EXPECT_EQ(pg.group_generate(pos, len), ((aw + bw) >> len) & 1);
  }
}

TEST(PropagateGenerate, OverhangNeverPropagates) {
  const auto a = ApInt::all_ones(8);
  const auto b = ApInt(8);
  const PropagateGenerate pg(a, b);  // p = all ones within width
  EXPECT_TRUE(pg.group_propagate(0, 8));
  EXPECT_FALSE(pg.group_propagate(0, 9));  // window overhangs the adder
  EXPECT_FALSE(pg.group_generate(4, 8));
}

}  // namespace
}  // namespace vlcsa::arith
