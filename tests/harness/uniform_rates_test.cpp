// Statistical gate for every uniform-unsigned error-rate entry in the
// registry.  The golden pins (registry_pin_test) prove a stream did not
// change; this proves the stream is right.  For unsigned uniform inputs the
// library has exact DP error models, so each entry's measured rate, at its
// default sample count and a fixed seed, must sit inside a 5-sigma Wilson
// interval of its model:
//  * VLCSA 1: the stall (nominal) rate against scsa_exact_error_rate — the
//    exact probability that some window pair is generate-then-propagate,
//    which is exactly when VLCSA 1's detection fires;
//  * VLSA: the speculative-error (actual) rate against
//    vlsa_exact_error_rate.  VLSA's detector flags every l-long propagate
//    run whether or not a carry enters it, so its nominal rate runs about
//    twice the error rate and has no exact model here; it is held to
//    nominal >= actual instead.
// Every entry must also emit no wrong result and miss no detection.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/experiments.hpp"
#include "harness/montecarlo.hpp"
#include "speculative/error_model.hpp"

namespace vlcsa::harness {
namespace {

std::vector<std::string> uniform_unsigned_entries() {
  std::vector<std::string> names;
  for (const ErrorRateExperiment& experiment : error_rate_experiments()) {
    if (experiment.dist == arith::InputDistribution::kUniformUnsigned) {
      names.push_back(experiment.name);
    }
  }
  return names;
}

class UniformRateTest : public ::testing::TestWithParam<std::string> {};

TEST_P(UniformRateTest, RateSitsInsideTheExactModelsWilsonInterval) {
  const ErrorRateExperiment* experiment = find_error_rate_experiment(GetParam());
  ASSERT_NE(experiment, nullptr);
  // scsa_exact_error_rate is VLCSA 1's stall rate only; VLCSA 2 stalls when
  // both of its detectors fire, which no model here covers.
  ASSERT_NE(experiment->model, ModelKind::kVlcsa2) << "no exact stall model for VLCSA 2";

  RunOptions options;
  options.samples = experiment->default_samples;
  options.seed = 1;
  options.threads = 1;
  const ErrorRateResult result = run_experiment(*experiment, options);
  ASSERT_EQ(result.samples, experiment->default_samples);
  EXPECT_EQ(result.emitted_wrong, 0u);
  EXPECT_EQ(result.false_negatives, 0u);
  EXPECT_GE(result.nominal_errors, result.actual_errors);

  const bool vlsa = experiment->model == ModelKind::kVlsa;
  const double exact = vlsa ? spec::vlsa_exact_error_rate(experiment->width, experiment->window)
                            : spec::scsa_exact_error_rate(experiment->width, experiment->window);
  const std::uint64_t observed = vlsa ? result.actual_errors : result.nominal_errors;
  const WilsonInterval bound = wilson_interval(observed, result.samples, 5.0);
  EXPECT_TRUE(bound.contains(exact))
      << (vlsa ? "actual " : "nominal ") << observed << " of " << result.samples
      << ": 5-sigma Wilson [" << bound.lo << ", " << bound.hi << "] misses exact " << exact;
}

std::string entry_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (c == '/' || c == '.' || c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(EveryUniformUnsignedEntry, UniformRateTest,
                         ::testing::ValuesIn(uniform_unsigned_entries()), entry_name);

}  // namespace
}  // namespace vlcsa::harness
