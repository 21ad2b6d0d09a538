#include "harness/experiments.hpp"

#include <gtest/gtest.h>

#include <set>

namespace vlcsa::harness {
namespace {

TEST(Experiments, RegistryIsPopulatedWithUniqueNames) {
  const auto& error_rate = error_rate_experiments();
  const auto& chains = chain_profile_experiments();
  ASSERT_FALSE(error_rate.empty());
  ASSERT_FALSE(chains.empty());
  std::set<std::string> names;
  for (const auto& e : error_rate) names.insert(e.name);
  for (const auto& e : chains) names.insert(e.name);
  EXPECT_EQ(names.size(), error_rate.size() + chains.size());
}

TEST(Experiments, TablePointsAreRegistered) {
  for (const char* name : {"table7.1/n64", "table7.2/n512", "table7.4/n128-rate0.25",
                           "fig7.1/n64-k6", "eq5.2/n64-uniform", "vlsa/n64"}) {
    EXPECT_NE(find_error_rate_experiment(name), nullptr) << name;
  }
  for (const char* name :
       {"fig6.1/uniform-unsigned", "fig6.2/rsa-like", "fig6.5/gaussian-twos-complement"}) {
    EXPECT_NE(find_chain_profile_experiment(name), nullptr) << name;
  }
  EXPECT_EQ(find_error_rate_experiment("table7.1/n63"), nullptr);
}

TEST(Experiments, PrefixQueryPreservesRegistrationOrder) {
  const auto table7_1 = error_rate_experiments_with_prefix("table7.1/");
  ASSERT_EQ(table7_1.size(), 4u);
  int last_width = 0;
  for (const auto* e : table7_1) {
    EXPECT_GT(e->width, last_width);  // published rows are width-ascending
    last_width = e->width;
    EXPECT_EQ(e->model, ModelKind::kVlcsa1);
    EXPECT_EQ(e->dist, arith::InputDistribution::kGaussianTwos);
  }
}

TEST(Experiments, Table71RunMatchesThePublishedRate) {
  const auto* e = find_error_rate_experiment("table7.1/n64");
  ASSERT_NE(e, nullptr);
  const auto result = run_experiment(*e, {.samples = 40000, .seed = 13, .threads = 4});
  EXPECT_EQ(result.samples, 40000u);
  // Paper: 25.01% nominal error rate at every width.
  EXPECT_NEAR(result.nominal_rate(), 0.25, 0.02);
  EXPECT_EQ(result.false_negatives, 0u);
  EXPECT_EQ(result.emitted_wrong, 0u);
}

TEST(Experiments, ErrorRateRunIsThreadCountInvariant) {
  const auto* e = find_error_rate_experiment("table7.2/n64");
  ASSERT_NE(e, nullptr);
  const auto t1 = run_experiment(*e, {.samples = 30000, .seed = 7, .threads = 1});
  const auto t8 = run_experiment(*e, {.samples = 30000, .seed = 7, .threads = 8});
  EXPECT_EQ(t1.actual_errors, t8.actual_errors);
  EXPECT_EQ(t1.nominal_errors, t8.nominal_errors);
  EXPECT_EQ(t1.total_cycles, t8.total_cycles);
  EXPECT_GE(t1.nominal_errors, t1.actual_errors);
  EXPECT_EQ(t1.false_negatives, 0u);
}

TEST(Experiments, VlsaExperimentHonorsInvariants) {
  const auto* e = find_error_rate_experiment("vlsa/n64");
  ASSERT_NE(e, nullptr);
  const auto result = run_experiment(*e, {.samples = 30000, .seed = 17, .threads = 4});
  EXPECT_EQ(result.false_negatives, 0u);
  EXPECT_EQ(result.emitted_wrong, 0u);
  EXPECT_GE(result.nominal_errors, result.actual_errors);
}

TEST(Experiments, ChainProfileRunIsThreadCountInvariant) {
  const auto* e = find_chain_profile_experiment("fig6.5/gaussian-twos-complement");
  ASSERT_NE(e, nullptr);
  const auto t1 = run_experiment(*e, {.samples = 50000, .seed = 5, .threads = 1});
  const auto t8 = run_experiment(*e, {.samples = 50000, .seed = 5, .threads = 8});
  EXPECT_EQ(t1.additions(), 50000u);
  EXPECT_EQ(t1.total(), t8.total());
  EXPECT_EQ(t1.counts(), t8.counts());
  // Sanity on the merged histogram: short chains dominate (geometric decay)
  // and the counts actually carry mass.
  EXPECT_GT(t1.total(), 0u);
  EXPECT_GT(t1.fraction(1), 0.3);
  EXPECT_GT(t1.mean_length(), 1.0);
  EXPECT_LT(t1.mean_length(), 4.0);
}

TEST(Experiments, CryptoProfileIsDeterministicInSeed) {
  const auto* e = find_chain_profile_experiment("fig6.2/rsa-like");
  ASSERT_NE(e, nullptr);
  const auto a = run_experiment(*e, {.samples = 2, .seed = 9, .threads = 1});
  const auto b = run_experiment(*e, {.samples = 2, .seed = 9, .threads = 4});
  EXPECT_GT(a.additions(), 0u);
  EXPECT_EQ(a.counts(), b.counts());
  EXPECT_EQ(a.additions(), b.additions());
}

TEST(Experiments, ProfilerMergeRejectsMismatchedShapes) {
  arith::CarryChainProfiler a(32), b(64);
  EXPECT_THROW(a += b, std::invalid_argument);
  arith::CarryChainProfiler c(32, arith::ChainMetric::kLongestPerAdd);
  EXPECT_THROW(a += c, std::invalid_argument);
}

TEST(Experiments, ParseEvalPathRoundTripsEveryValue) {
  for (const EvalPath path : {EvalPath::kBatched, EvalPath::kScalar}) {
    EvalPath parsed = EvalPath::kBatched;
    ASSERT_TRUE(parse_eval_path(to_string(path), parsed)) << to_string(path);
    EXPECT_EQ(parsed, path);
  }
}

TEST(Experiments, ParseEvalPathRejectsUnknownText) {
  EvalPath parsed = EvalPath::kScalar;
  EXPECT_FALSE(parse_eval_path("on", parsed));  // the explorer toggle, not a path name
  EXPECT_FALSE(parse_eval_path("Batched", parsed));
  EXPECT_FALSE(parse_eval_path("", parsed));
  EXPECT_EQ(parsed, EvalPath::kScalar);
}

}  // namespace
}  // namespace vlcsa::harness
