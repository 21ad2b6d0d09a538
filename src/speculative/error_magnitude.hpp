#pragma once
// Error-magnitude analytics for the bare speculative adder (Ch. 3.3 /
// Fig 3.6): when SCSA errs, how large is the error relative to the correct
// result?  The paper argues the magnitude is low because a wrong window
// carry shifts the whole result by one window weight instead of flipping an
// arbitrary output bit.

#include <array>
#include <cstdint>

#include "arith/distributions.hpp"
#include "speculative/scsa.hpp"

namespace vlcsa::spec {

struct ErrorMagnitudeStats {
  std::uint64_t samples = 0;
  std::uint64_t errors = 0;
  double mean_relative_error = 0.0;  // mean of |exact-spec| / |exact| over errors
  double max_relative_error = 0.0;
  /// Histogram of floor(log2(|exact - spec| as unsigned)) over errors;
  /// index clamps to 63.
  std::array<std::uint64_t, 64> magnitude_log2{};

  [[nodiscard]] double error_rate() const {
    return samples == 0 ? 0.0
                        : static_cast<double>(errors) / static_cast<double>(samples);
  }
};

/// Measures S*,0 error magnitudes over a distribution.  Relative error uses
/// the unsigned interpretation (the paper's Ch. 3.3 convention) of the
/// (n+1)-bit sums, carry-out included, so a sum that wraps past 2^n is not
/// mistaken for a small one; exact-zero results with an error count as
/// relative error 1.
[[nodiscard]] ErrorMagnitudeStats measure_error_magnitude(const ScsaConfig& config,
                                                          arith::OperandSource& source,
                                                          std::uint64_t samples,
                                                          std::uint64_t seed);

}  // namespace vlcsa::spec
