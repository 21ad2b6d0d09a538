// Registry-wide regression pins, two layers:
//
//  * Golden ErrorRateResult counters for a sample of registry experiments at
//    20000 samples, seed 1.  Counters must stay bit-identical — at every lane
//    width {1, 4} and thread count {1, 4}, on whatever planeops backend
//    dispatch selected.  If one of these values ever moves, the RNG (or the
//    engine's stream discipline) broke its identity contract, and every
//    cached service record on disk is silently stale.  The sample spans both
//    VLCSA variants, VLSA, three distributions, and widths 64..256.
//
//  * The FNV-1a-64 hash of EVERY registry entry's exact result record
//    (harness::run_record) at 1000 samples, seed 1: all 52 error-rate entries
//    on both eval paths and all 7 chain profiles, fig6.2's crypto workloads
//    included.  1000 is not a multiple of 64, so every batched run also takes
//    a scalar tail.  These hashes were recorded from the records the service
//    daemon rendered (vlcsa_serve --stdio, one "run" request per row) before
//    record rendering moved from the service into the registry — so they pin
//    the cache format itself: field order, spelling, number formatting and
//    stream_version, not just the counters.
//
// Golden provenance, by row:
//  * Uniform rows (table7.4, fig7.1, vlsa): recorded from the pre-BlockRng
//    baseline (the std::mt19937_64 era, PR 4 head) and never moved since —
//    the block RNG is sequence-identical to the std engine.
//  * Gaussian rows (table7.1, table7.2, eq5.2): re-recorded at the
//    gauss-rng-v2 migration, when GaussianUnsignedSource/GaussianTwosSource
//    moved from per-sample std::normal_distribution to the block ziggurat
//    (arith::GaussianBlockSampler).  That swap changes the Gaussian variate
//    stream by design; the matching service-cache stream_version bump keeps
//    pre-migration disk records from being served (see docs/OPERATIONS.md).
//    The uniform rows staying bit-identical across the same PR is the
//    evidence the migration touched only the Gaussian streams.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>

#include "arith/carry_chain.hpp"
#include "harness/experiments.hpp"
#include "harness/json.hpp"
#include "harness/montecarlo.hpp"

namespace vlcsa::harness {
namespace {

struct GoldenCounters {
  const char* experiment;
  std::uint64_t actual_errors;
  std::uint64_t nominal_errors;
  std::uint64_t either_wrong;
  std::uint64_t total_cycles;
};

// samples=20000, seed=1; false_negatives and emitted_wrong were 0 everywhere
// (also asserted below as the model invariants they are).  Gaussian rows are
// gauss-rng-v2 values; uniform rows are PR 4 head values (see header).
constexpr GoldenCounters kGolden[] = {
    {"table7.1/n64", 5102, 5102, 1, 25102},
    {"table7.2/n128", 1, 1, 1, 20001},
    {"table7.4/n256-rate0.01", 4, 5, 0, 20005},
    {"fig7.1/n64-k8", 230, 265, 2, 20265},
    {"eq5.2/n64-gaussian-2c", 27, 61, 27, 20061},
    {"vlsa/n128", 1, 4, 1, 20004},
};

constexpr std::uint64_t kSamples = 20000;
constexpr std::uint64_t kSeed = 1;

class RegistryPinTest
    : public ::testing::TestWithParam<std::tuple<GoldenCounters, int, int>> {};

TEST_P(RegistryPinTest, CountersMatchPreBlockRngBaseline) {
  const auto& [golden, lane_words, threads] = GetParam();
  const ErrorRateExperiment* experiment = find_error_rate_experiment(golden.experiment);
  ASSERT_NE(experiment, nullptr) << golden.experiment;

  RunOptions options;
  options.samples = kSamples;
  options.seed = kSeed;
  options.threads = threads;
  options.lane_words = lane_words;
  const ErrorRateResult result = run_experiment(*experiment, options);

  EXPECT_EQ(result.samples, kSamples);
  EXPECT_EQ(result.actual_errors, golden.actual_errors);
  EXPECT_EQ(result.nominal_errors, golden.nominal_errors);
  EXPECT_EQ(result.either_wrong, golden.either_wrong);
  EXPECT_EQ(result.total_cycles, golden.total_cycles);
  EXPECT_EQ(result.false_negatives, 0u);
  EXPECT_EQ(result.emitted_wrong, 0u);
}

std::string pin_name(
    const ::testing::TestParamInfo<std::tuple<GoldenCounters, int, int>>& info) {
  std::string name = std::get<0>(info.param).experiment;
  for (char& c : name) {
    if (c == '/' || c == '.' || c == '-') c = '_';
  }
  return name + "_w" + std::to_string(std::get<1>(info.param)) + "_t" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(GoldenByLaneWordsByThreads, RegistryPinTest,
                         ::testing::Combine(::testing::ValuesIn(kGolden),
                                            ::testing::Values(1, 4),
                                            ::testing::Values(1, 4)),
                         pin_name);

// The chain-profile side of the registry, pinned the same way (fig6.1 runs
// the uniform source through the per-sample engine path; its histogram is a
// pure function of the shard streams).
TEST(RegistryPinTest, ChainProfileHistogramMatchesPreBlockRngBaseline) {
  const ChainProfileExperiment* experiment =
      find_chain_profile_experiment("fig6.1/uniform-unsigned");
  ASSERT_NE(experiment, nullptr);
  for (const int threads : {1, 4}) {
    const auto profile = run_experiment(*experiment, kSamples, kSeed, threads);
    EXPECT_EQ(profile.additions(), kSamples);
    std::uint64_t fnv = 1469598103934665603ULL;
    for (const std::uint64_t count : profile.counts()) {
      fnv ^= count;
      fnv *= 1099511628211ULL;
    }
    EXPECT_EQ(fnv, 18201216359876648524ULL) << "threads " << threads;
  }
}

struct GoldenRecord {
  const char* experiment;
  const char* eval_path;  // nullptr for chain profiles (no eval_path field)
  std::uint64_t fnv1a64;  // of the record bytes, no trailing newline
};

// ctest lists one test per row; print the row, not its bytes.
void PrintTo(const GoldenRecord& golden, std::ostream* os) {
  *os << golden.experiment << (golden.eval_path != nullptr ? " " : "")
      << (golden.eval_path != nullptr ? golden.eval_path : "");
}

// samples=1000, seed=1; see the header for provenance.
constexpr GoldenRecord kGoldenRecords[] = {
    {"table7.1/n64", "batched", 0x568a43f0cf6689ffULL},
    {"table7.1/n64", "scalar", 0x4b7a86095f7c008cULL},
    {"table7.1/n128", "batched", 0xbd67a26f5229e100ULL},
    {"table7.1/n128", "scalar", 0x7cf7189372f53035ULL},
    {"table7.1/n256", "batched", 0xeed3e778ab786157ULL},
    {"table7.1/n256", "scalar", 0x3b253b97ade16854ULL},
    {"table7.1/n512", "batched", 0xe39ff73b9a7aa580ULL},
    {"table7.1/n512", "scalar", 0xb8fa3841872219b5ULL},
    {"table7.2/n64", "batched", 0x2d919c4efd1fa9b3ULL},
    {"table7.2/n64", "scalar", 0x1529eda9978d17f8ULL},
    {"table7.2/n128", "batched", 0x0881a9e7a0d67032ULL},
    {"table7.2/n128", "scalar", 0xec682cdef39ebca3ULL},
    {"table7.2/n256", "batched", 0xdfeaefc8893bf889ULL},
    {"table7.2/n256", "scalar", 0x5652d77386c3087eULL},
    {"table7.2/n512", "batched", 0x572c924138f876a2ULL},
    {"table7.2/n512", "scalar", 0xe288849d7b2f0253ULL},
    {"table7.4/n64-rate0.01", "batched", 0xea1d4d76537e4ab5ULL},
    {"table7.4/n64-rate0.01", "scalar", 0xfa4b734bf0933984ULL},
    {"table7.4/n64-rate0.25", "batched", 0xc8cfe6b77c00fadbULL},
    {"table7.4/n64-rate0.25", "scalar", 0xe0cfb2656c09fe06ULL},
    {"table7.4/n128-rate0.01", "batched", 0x5e150ce943671c94ULL},
    {"table7.4/n128-rate0.01", "scalar", 0xc3b5f905f83b0147ULL},
    {"table7.4/n128-rate0.25", "batched", 0x41df1d86c9ff528cULL},
    {"table7.4/n128-rate0.25", "scalar", 0xb42115f764f47a03ULL},
    {"table7.4/n256-rate0.01", "batched", 0xc337493162db2927ULL},
    {"table7.4/n256-rate0.01", "scalar", 0xd21a0b5f26942ee6ULL},
    {"table7.4/n256-rate0.25", "batched", 0xf25841f62e3dd497ULL},
    {"table7.4/n256-rate0.25", "scalar", 0x60f19f976b6cde88ULL},
    {"table7.4/n512-rate0.01", "batched", 0xaeca1d9c4919c462ULL},
    {"table7.4/n512-rate0.01", "scalar", 0xf92647710fb227ddULL},
    {"table7.4/n512-rate0.25", "batched", 0x72b74b6df547a5c4ULL},
    {"table7.4/n512-rate0.25", "scalar", 0x9425ecb8b3462c17ULL},
    {"fig7.1/n64-k6", "batched", 0xcba4d354b1a711f5ULL},
    {"fig7.1/n64-k6", "scalar", 0x0d8335ac38a5d33aULL},
    {"fig7.1/n64-k8", "batched", 0x8798124270a0c089ULL},
    {"fig7.1/n64-k8", "scalar", 0x72853a524500734eULL},
    {"fig7.1/n64-k10", "batched", 0x4b962667f128210fULL},
    {"fig7.1/n64-k10", "scalar", 0xc8f07667d396c3c2ULL},
    {"fig7.1/n64-k12", "batched", 0x67732c042faadfa7ULL},
    {"fig7.1/n64-k12", "scalar", 0x19168ab752995e66ULL},
    {"fig7.1/n64-k14", "batched", 0xdac15c21fec836a7ULL},
    {"fig7.1/n64-k14", "scalar", 0x270ba84083552b66ULL},
    {"fig7.1/n64-k16", "batched", 0x932c8c69c17ea6afULL},
    {"fig7.1/n64-k16", "scalar", 0xc666f812f320cbdeULL},
    {"fig7.1/n128-k6", "batched", 0x413aea61edad626dULL},
    {"fig7.1/n128-k6", "scalar", 0x5f0d250a83152a02ULL},
    {"fig7.1/n128-k8", "batched", 0x74b36ba519d1c90dULL},
    {"fig7.1/n128-k8", "scalar", 0x81476f33c71f0d8cULL},
    {"fig7.1/n128-k10", "batched", 0xf5e1bd2f3391e5cfULL},
    {"fig7.1/n128-k10", "scalar", 0xe2f5f78e9d3d072aULL},
    {"fig7.1/n128-k12", "batched", 0xfec939b1c7cddce7ULL},
    {"fig7.1/n128-k12", "scalar", 0xcfbfe8ff74ae5ea6ULL},
    {"fig7.1/n128-k14", "batched", 0xd1b440d525aa0a5bULL},
    {"fig7.1/n128-k14", "scalar", 0x373c41d26f9befa2ULL},
    {"fig7.1/n128-k16", "batched", 0xbc689e53346db377ULL},
    {"fig7.1/n128-k16", "scalar", 0x5bc6058be96e4936ULL},
    {"fig7.1/n256-k6", "batched", 0xbcde9a7857120cf8ULL},
    {"fig7.1/n256-k6", "scalar", 0xcf763f6e87b857f7ULL},
    {"fig7.1/n256-k8", "batched", 0xc2e7aa3ee8919251ULL},
    {"fig7.1/n256-k8", "scalar", 0xdb9d1a376cafdae4ULL},
    {"fig7.1/n256-k10", "batched", 0xe3696b07f9690b7fULL},
    {"fig7.1/n256-k10", "scalar", 0x1dd0b477c57c965aULL},
    {"fig7.1/n256-k12", "batched", 0x2a9c24ddb0d37061ULL},
    {"fig7.1/n256-k12", "scalar", 0x32d3d29cc339ed5aULL},
    {"fig7.1/n256-k14", "batched", 0x2617d9c74eeea3afULL},
    {"fig7.1/n256-k14", "scalar", 0xeb3109e834305adeULL},
    {"fig7.1/n256-k16", "batched", 0x9af206bdb91af867ULL},
    {"fig7.1/n256-k16", "scalar", 0x00ec4f9332bc1526ULL},
    {"fig7.1/n512-k6", "batched", 0xd32295985ccd2ff1ULL},
    {"fig7.1/n512-k6", "scalar", 0x8b37f984fa608c6eULL},
    {"fig7.1/n512-k8", "batched", 0x9d18907bc49206eaULL},
    {"fig7.1/n512-k8", "scalar", 0xadb5bef8e18651f5ULL},
    {"fig7.1/n512-k10", "batched", 0x56e09d501b20da9aULL},
    {"fig7.1/n512-k10", "scalar", 0x476f5ee477ddb80bULL},
    {"fig7.1/n512-k12", "batched", 0x242fd6d6eae3b573ULL},
    {"fig7.1/n512-k12", "scalar", 0x0582fc2d936715bcULL},
    {"fig7.1/n512-k14", "batched", 0xa2655e79a8d76d4bULL},
    {"fig7.1/n512-k14", "scalar", 0x6eb70a91911cd9f2ULL},
    {"fig7.1/n512-k16", "batched", 0x3247e205b16f0669ULL},
    {"fig7.1/n512-k16", "scalar", 0xa9c7f0a9ff93cdbeULL},
    {"eq5.2/n64-uniform", "batched", 0x4194a0ed0a2a6528ULL},
    {"eq5.2/n64-uniform", "scalar", 0xfd9a3dea863c0ef3ULL},
    {"eq5.2/n64-gaussian-2c", "batched", 0xc9f774387833361aULL},
    {"eq5.2/n64-gaussian-2c", "scalar", 0x8bd904ebde13cb47ULL},
    {"eq5.2/n128-uniform", "batched", 0x080490ab283495a7ULL},
    {"eq5.2/n128-uniform", "scalar", 0xd13958511ecab296ULL},
    {"eq5.2/n128-gaussian-2c", "batched", 0x8903f44b5a17ed61ULL},
    {"eq5.2/n128-gaussian-2c", "scalar", 0x88880edb631a7034ULL},
    {"eq5.2/n256-uniform", "batched", 0x4c7411f70d06627eULL},
    {"eq5.2/n256-uniform", "scalar", 0x3db22925a313410fULL},
    {"eq5.2/n256-gaussian-2c", "batched", 0xe3ee8e838dacc629ULL},
    {"eq5.2/n256-gaussian-2c", "scalar", 0x86a85e2af9a99292ULL},
    {"eq5.2/n512-uniform", "batched", 0xdc35d53097a26671ULL},
    {"eq5.2/n512-uniform", "scalar", 0x5a94823c833273ecULL},
    {"eq5.2/n512-gaussian-2c", "batched", 0x4cc154fa2e495c20ULL},
    {"eq5.2/n512-gaussian-2c", "scalar", 0x321262a7cd59a4bdULL},
    {"vlsa/n64", "batched", 0x1768e78cd77bb1f5ULL},
    {"vlsa/n64", "scalar", 0x3496efa7309d29c4ULL},
    {"vlsa/n128", "batched", 0x55a4866f6cb22ce6ULL},
    {"vlsa/n128", "scalar", 0xef32a2a9c0bd6a49ULL},
    {"vlsa/n256", "batched", 0x432c8b45635f1557ULL},
    {"vlsa/n256", "scalar", 0x9a92f791d8f81396ULL},
    {"vlsa/n512", "batched", 0x60eacf3e098fc6c6ULL},
    {"vlsa/n512", "scalar", 0xee0a6128a5a44c29ULL},
    {"fig6.1/uniform-unsigned", nullptr, 0xc2ed85c3d48796dcULL},
    {"fig6.2/rsa-like", nullptr, 0x70aa8b01c1138135ULL},
    {"fig6.2/diffie-hellman-like", nullptr, 0x8d3badb0b9e2c58dULL},
    {"fig6.2/ec-field-like", nullptr, 0xbdfbde48c1203b8fULL},
    {"fig6.3/uniform-twos-complement", nullptr, 0x87b5119322bc9b35ULL},
    {"fig6.4/gaussian-unsigned", nullptr, 0x5b5c07f98cf840fcULL},
    {"fig6.5/gaussian-twos-complement", nullptr, 0xcbd2b16ae55f103aULL},
};

constexpr std::uint64_t kRecordSamples = 1000;

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const unsigned char byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ULL;
  }
  return hash;
}

class RegistryRecordPinTest : public ::testing::TestWithParam<GoldenRecord> {};

TEST_P(RegistryRecordPinTest, RecordBytesMatchServiceRenderedGolden) {
  const GoldenRecord& golden = GetParam();
  EvalPath path = EvalPath::kBatched;
  if (golden.eval_path != nullptr) {
    ASSERT_TRUE(parse_eval_path(golden.eval_path, path));
  }
  const auto key = record_key(golden.experiment, kRecordSamples, kSeed, path);
  ASSERT_TRUE(key.has_value()) << golden.experiment;
  if (golden.eval_path == nullptr) {
    EXPECT_EQ(key->path, EvalPath::kScalar);
  }

  RunOptions options;
  options.threads = 1;
  const RecordRun run = run_record(*key, options);
  EXPECT_EQ(fnv1a64(run.record), golden.fnv1a64) << run.record;
  EXPECT_FALSE(run.profile.has_value());

  // The key and the record agree on every field the disk tier validates.
  const JsonParse parsed = parse_json(run.record);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.value.find("experiment")->as_string(), key->experiment);
  EXPECT_EQ(parsed.value.find("eval_path")->as_string(), to_string(key->path));
  const JsonValue* version = parsed.value.find("stream_version");
  EXPECT_EQ(version == nullptr ? std::string() : version->as_string(), key->stream_version);
}

std::string record_pin_name(const ::testing::TestParamInfo<GoldenRecord>& info) {
  std::string name = info.param.experiment;
  for (char& c : name) {
    if (c == '/' || c == '.' || c == '-') c = '_';
  }
  return name + (info.param.eval_path != nullptr ? std::string("_") + info.param.eval_path : "");
}

INSTANTIATE_TEST_SUITE_P(EveryRegistryEntry, RegistryRecordPinTest,
                         ::testing::ValuesIn(kGoldenRecords), record_pin_name);

TEST(RegistryRecordPin, GoldensCoverTheWholeRegistry) {
  std::set<std::string> pinned;
  for (const GoldenRecord& golden : kGoldenRecords) {
    pinned.insert(std::string(golden.experiment) + "|" +
                  (golden.eval_path != nullptr ? golden.eval_path : "-"));
  }
  EXPECT_EQ(pinned.size(), std::size(kGoldenRecords));  // no duplicate rows
  for (const ErrorRateExperiment& experiment : error_rate_experiments()) {
    EXPECT_EQ(pinned.count(experiment.name + "|batched"), 1u) << experiment.name;
    EXPECT_EQ(pinned.count(experiment.name + "|scalar"), 1u) << experiment.name;
  }
  for (const ChainProfileExperiment& experiment : chain_profile_experiments()) {
    EXPECT_EQ(pinned.count(experiment.name + "|-"), 1u) << experiment.name;
  }
  EXPECT_EQ(std::size(kGoldenRecords),
            2 * error_rate_experiments().size() + chain_profile_experiments().size());
}

TEST(RegistryRecordPin, UnknownNamesHaveNoKey) {
  EXPECT_FALSE(record_key("table7.1/n65", 0, 1, EvalPath::kBatched).has_value());
  RecordKey unknown;
  unknown.experiment = "table7.1/n65";
  EXPECT_THROW((void)run_record(unknown, RunOptions{}), std::invalid_argument);
}

TEST(RegistryRecordPin, ZeroSamplesSelectsTheEntryDefault) {
  const auto key = record_key("fig6.2/rsa-like", 0, 7, EvalPath::kBatched);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(key->samples, find_chain_profile_experiment("fig6.2/rsa-like")->default_samples);
  EXPECT_EQ(key->seed, 7u);
}

}  // namespace
}  // namespace vlcsa::harness
