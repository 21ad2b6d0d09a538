#include "speculative/error_magnitude.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace vlcsa::spec {
namespace {

/// Draws one fixed operand pair forever.
class FixedPairSource final : public arith::OperandSource {
 public:
  FixedPairSource(arith::ApInt a, arith::ApInt b)
      : OperandSource(a.width()), a_(std::move(a)), b_(std::move(b)) {}
  [[nodiscard]] std::string name() const override { return "fixed-pair"; }
  std::pair<arith::ApInt, arith::ApInt> next(arith::BlockRng&) override { return {a_, b_}; }
  void fill_batch(arith::BlockRng&, arith::BitSlicedBatch& out) override {
    const auto lanes = static_cast<std::size_t>(out.lanes());
    out.load(std::vector<arith::ApInt>(lanes, a_), std::vector<arith::ApInt>(lanes, b_));
  }
  [[nodiscard]] std::unique_ptr<OperandSource> clone() const override {
    return std::make_unique<FixedPairSource>(a_, b_);
  }

 private:
  arith::ApInt a_;
  arith::ApInt b_;
};

TEST(ErrorMagnitude, CountsMatchDirectEvaluation) {
  const ScsaConfig config{32, 6};
  arith::UniformUnsignedSource source(32);
  const auto stats = measure_error_magnitude(config, source, 50000, 13);
  EXPECT_EQ(stats.samples, 50000u);
  EXPECT_GT(stats.errors, 0u);
  // Histogram totals must equal the error count.
  std::uint64_t histogram_total = 0;
  for (const auto c : stats.magnitude_log2) histogram_total += c;
  EXPECT_EQ(histogram_total, stats.errors);
  EXPECT_GT(stats.error_rate(), 0.0);
  EXPECT_LE(stats.mean_relative_error, stats.max_relative_error);
}

TEST(ErrorMagnitude, ErrorsAreWindowWeightSized) {
  // Ch. 3.3: the absolute error is a (sum of) window-weight off-by-ones, so
  // log2 |error| always sits at a window boundary position.
  const ScsaConfig config{32, 8};
  arith::UniformUnsignedSource source(32);
  const auto stats = measure_error_magnitude(config, source, 200000, 17);
  ASSERT_GT(stats.errors, 0u);
  const WindowLayout layout(32, 8);
  for (int log2_mag = 0; log2_mag < 64; ++log2_mag) {
    if (stats.magnitude_log2[static_cast<std::size_t>(log2_mag)] == 0) continue;
    // A single wrong window at pos contributes exactly 2^pos; multiple
    // wrong windows can combine into runs ending just below a higher
    // boundary.  Either way the magnitude is >= the first non-zero window
    // boundary above bit 0.
    EXPECT_GE(log2_mag, layout.window(1).pos - 1) << "error of weight 2^" << log2_mag;
  }
}

TEST(ErrorMagnitude, MeanRelativeErrorIsSmallOnUniformInputs) {
  // The headline of Ch. 3.3: when the speculative adder errs on full-scale
  // uniform operands, the relative error is small (the paper's example is
  // 1/2^7).
  const ScsaConfig config{64, 10};
  arith::UniformUnsignedSource source(64);
  const auto stats = measure_error_magnitude(config, source, 300000, 19);
  ASSERT_GT(stats.errors, 10u);
  EXPECT_LT(stats.mean_relative_error, 0.05);
}

TEST(ErrorMagnitude, ASumThatCarriesOutIsMeasuredWithItsCarry) {
  // n = 16, k = 4: window 1 (bits 4..7) generates, windows 2 and 3
  // propagate, so the exact sum 0xfff0 + 0x0011 = 0x1_0001 carries out while
  // SCSA drops the carry into window 3 and emits 0x0_f001.  The error is one
  // window weight, 2^12, against a sum of 2^16 + 1; read as 16-bit values the
  // sum would be 1 and the error 0xf000.
  const ScsaConfig config{16, 4};
  FixedPairSource source(arith::ApInt::from_u64(16, 0xfff0), arith::ApInt::from_u64(16, 0x0011));
  const auto stats = measure_error_magnitude(config, source, 3, 1);
  ASSERT_EQ(stats.errors, 3u);
  EXPECT_EQ(stats.magnitude_log2[12], 3u);
  EXPECT_DOUBLE_EQ(stats.mean_relative_error, 4096.0 / 65537.0);
  EXPECT_DOUBLE_EQ(stats.max_relative_error, 4096.0 / 65537.0);
}

TEST(ErrorMagnitude, NoErrorsOnSingleWindow) {
  const ScsaConfig config{16, 16};
  arith::UniformUnsignedSource source(16);
  const auto stats = measure_error_magnitude(config, source, 10000, 23);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_relative_error, 0.0);
}

}  // namespace
}  // namespace vlcsa::spec
