#include "speculative/multi_operand.hpp"

#include <gtest/gtest.h>

#include <random>

#include "arith/distributions.hpp"

namespace vlcsa::spec {
namespace {

using arith::ApInt;

TEST(CarrySaveCompress, PreservesSumModulo) {
  vlcsa::arith::BlockRng rng(1);
  for (int i = 0; i < 500; ++i) {
    const auto a = ApInt::random(48, rng);
    const auto b = ApInt::random(48, rng);
    const auto c = ApInt::random(48, rng);
    const auto [s, carry] = carry_save_compress(a, b, c);
    EXPECT_EQ(s + carry, (a + b) + c);
  }
}

TEST(CarrySaveReduce, EdgeCounts) {
  const int width = 32;
  vlcsa::arith::BlockRng rng(2);
  // 0 operands -> zero.
  {
    const auto [s, c] = carry_save_reduce({}, width);
    EXPECT_TRUE(s.is_zero());
    EXPECT_TRUE(c.is_zero());
  }
  // 1 operand -> itself.
  {
    const std::vector<ApInt> ops{ApInt::random(width, rng)};
    const auto [s, c] = carry_save_reduce(ops, width);
    EXPECT_EQ(s, ops[0]);
    EXPECT_TRUE(c.is_zero());
  }
  // 2 operands -> passthrough.
  {
    const std::vector<ApInt> ops{ApInt::random(width, rng), ApInt::random(width, rng)};
    const auto [s, c] = carry_save_reduce(ops, width);
    EXPECT_EQ(s + c, ops[0] + ops[1]);
  }
}

TEST(CarrySaveReduce, RejectsWidthMismatch) {
  const std::vector<ApInt> ops{ApInt(16), ApInt(32), ApInt(16)};
  EXPECT_THROW((void)carry_save_reduce(ops, 16), std::invalid_argument);
}

class CarrySaveReduceTest : public ::testing::TestWithParam<int> {};

TEST_P(CarrySaveReduceTest, SumPreservedForManyOperands) {
  const int count = GetParam();
  const int width = 40;
  vlcsa::arith::BlockRng rng(100 + static_cast<unsigned>(count));
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<ApInt> ops;
    ApInt expected(width);
    for (int i = 0; i < count; ++i) {
      ops.push_back(ApInt::random(width, rng));
      expected = expected + ops.back();
    }
    const auto [s, c] = carry_save_reduce(ops, width);
    EXPECT_EQ(s + c, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, CarrySaveReduceTest,
                         ::testing::Values(3, 4, 5, 7, 8, 15, 16, 31, 33));

TEST(CsaTreeLevels, MatchesKnownDepths) {
  EXPECT_EQ(csa_tree_levels(2), 0);
  EXPECT_EQ(csa_tree_levels(3), 1);
  EXPECT_EQ(csa_tree_levels(4), 2);
  EXPECT_EQ(csa_tree_levels(6), 3);
  EXPECT_EQ(csa_tree_levels(9), 4);
  // Wallace-depth growth: levels grow ~log_{3/2}(m).
  EXPECT_LE(csa_tree_levels(64), 10);
}

TEST(MultiOperandAdder, AlwaysExactOverRandomStreams) {
  const int width = 64;
  const MultiOperandAdder adder({width, 10, ScsaVariant::kScsa2});
  vlcsa::arith::BlockRng rng(7);
  int stalls = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const int count = 3 + static_cast<int>(rng() % 14);
    std::vector<ApInt> ops;
    ApInt expected(width);
    for (int i = 0; i < count; ++i) {
      ops.push_back(ApInt::random(width, rng));
      expected = expected + ops.back();
    }
    const auto result = adder.add(ops);
    ASSERT_EQ(result.sum, expected);
    ASSERT_EQ(result.cycles, result.stalled ? 2 : 1);
    stalls += result.stalled ? 1 : 0;
  }
  // CSA outputs are far from uniform; just require both paths exercised.
  EXPECT_GT(stalls, 0);
}

TEST(MultiOperandAdder, GaussianOperandsStayExact) {
  const int width = 64;
  const MultiOperandAdder adder({width, 13, ScsaVariant::kScsa2});
  arith::GaussianSource source(width, arith::GaussianParams{0.0, 1048576.0}, true);
  vlcsa::arith::BlockRng rng(9);
  for (int trial = 0; trial < 1000; ++trial) {
    std::vector<ApInt> ops;
    ApInt expected(width);
    for (int i = 0; i < 8; ++i) {
      auto [a, b] = source.next(rng);
      ops.push_back(a);
      ops.push_back(b);
      expected = (expected + a) + b;
    }
    const auto result = adder.add(ops);
    ASSERT_EQ(result.sum, expected);
  }
}

}  // namespace
}  // namespace vlcsa::spec
