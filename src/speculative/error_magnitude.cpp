#include "speculative/error_magnitude.hpp"

#include <algorithm>
#include <cmath>

namespace vlcsa::spec {

namespace {

/// The n-bit sum with its carry-out as bit n: the value the adder computed.
ApInt with_carry_out(const ApInt& sum, bool carry_out) {
  ApInt wide = sum.zext(sum.width() + 1);
  wide.set_bit(sum.width(), carry_out);
  return wide;
}

/// |exact - spec| over the unsigned interpretation.
ApInt absolute_difference(const ApInt& exact, const ApInt& spec) {
  return exact.compare_unsigned(spec) >= 0 ? exact - spec : spec - exact;
}

/// Unsigned value as a double (fine for ratio purposes up to ~2^1024).
double to_double_unsigned(const ApInt& v) {
  double acc = 0.0;
  for (int i = 0; i < v.num_limbs(); ++i) {
    acc += std::ldexp(static_cast<double>(v.limb(i)), 64 * i);
  }
  return acc;
}

}  // namespace

ErrorMagnitudeStats measure_error_magnitude(const ScsaConfig& config,
                                            arith::OperandSource& source,
                                            std::uint64_t samples, std::uint64_t seed) {
  const ScsaModel model(config);
  arith::BlockRng rng = arith::make_stream_rng(seed);
  ErrorMagnitudeStats stats;
  stats.samples = samples;
  double sum_relative = 0.0;
  for (std::uint64_t s = 0; s < samples; ++s) {
    const auto [a, b] = source.next(rng);
    const auto ev = model.evaluate(a, b);
    if (ev.spec0_correct()) continue;
    ++stats.errors;
    const ApInt exact = with_carry_out(ev.exact, ev.exact_cout);
    const ApInt diff = absolute_difference(exact, with_carry_out(ev.spec0, ev.spec0_cout));
    const int log2_mag = std::max(diff.highest_set_bit(), 0);
    stats.magnitude_log2[static_cast<std::size_t>(std::min(log2_mag, 63))] += 1;
    const double exact_value = to_double_unsigned(exact);
    const double relative =
        exact_value == 0.0 ? 1.0 : to_double_unsigned(diff) / exact_value;
    sum_relative += relative;
    stats.max_relative_error = std::max(stats.max_relative_error, relative);
  }
  if (stats.errors > 0) {
    stats.mean_relative_error = sum_relative / static_cast<double>(stats.errors);
  }
  return stats;
}

}  // namespace vlcsa::spec
