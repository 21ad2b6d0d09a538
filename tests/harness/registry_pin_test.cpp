// Registry-wide regression pins, two layers:
//
//  * Golden ErrorRateResult counters for a sample of registry experiments at
//    20000 samples, seed 1.  Counters must stay bit-identical — at every lane
//    width {1, 4, 8, 16} and thread count {1, 4}, on whatever planeops backend
//    dispatch selected (8 lane words is the uniform source's zero-copy path,
//    pinned here even where the host's default width is 4).  If one of
//    these values ever moves, the RNG (or the engine's stream discipline)
//    broke its identity contract, and every cached service record on disk
//    is silently stale.  The sample spans both
//    VLCSA variants, VLSA, three distributions, and widths 64..256.
//
//  * The FNV-1a-64 hash of EVERY registry entry's exact result record
//    (harness::run_record) at 1000 samples, seed 1: all 52 error-rate entries
//    on both eval paths and all 7 chain profiles, fig6.2's crypto workloads
//    included.  1000 is not a multiple of 64, so every batched run ends in a
//    masked last batch (ceil(1000 / 64) = 16 groups, the last one 40 lanes
//    wide) and every scalar run draws that same 16th group in full (the
//    uniform source draws the whole second 512-sample superblock either
//    way).  These hashes pin the cache format itself: field order,
//    spelling, number formatting and stream_version, not just the counters.
//
// Golden provenance, by row:
//  * Two's-complement uniform (fig6.3) and crypto (fig6.2) rows: recorded
//    from the records the service daemon rendered (vlcsa_serve --stdio)
//    before record rendering moved into the registry, and never moved since.
//  * Gaussian rows (table7.1, table7.2, eq5.2 *-gaussian-2c, fig6.4, fig6.5):
//    re-recorded at the gauss-rng-v2 migration, when the Gaussian sources
//    moved from per-sample std::normal_distribution to the block ziggurat
//    (arith::GaussianBlockSampler).  They stayed byte-identical when shard
//    tails moved from the scalar oracle onto a masked last batch — the
//    evidence that the masked batch folds exactly the lanes the scalar tail
//    did.
//  * Uniform-unsigned rows (table7.4, fig7.1, eq5.2 *-uniform, vlsa, and the
//    fig6.1 histogram and record): re-recorded at the uniform-plane-v2
//    migration, when UniformUnsignedSource's stream moved from 64-sample
//    groups (uniform-plane-v1) to 512-sample superblocks drawn in
//    BitSlicedBatch's 8-lane-word layout (a's plane rows 0..n-1, each row
//    8 group words, then b's), so fill_batch generates straight into the
//    planes.  That changes the uniform-unsigned samples by design; the
//    matching stream_version bump keeps pre-migration disk records from
//    being served (see docs/OPERATIONS.md), and uniform_rates_test checks
//    the migrated rates against the exact DP error models.  Every other row staying
//    byte-identical across the same change is the evidence the migration
//    reached only the uniform-unsigned stream.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <optional>
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
// gauss-rng-v2 values; uniform rows are uniform-plane-v2 values (see header).
constexpr GoldenCounters kGolden[] = {
    {"table7.1/n64", 5102, 5102, 1, 25102},
    {"table7.2/n128", 1, 1, 1, 20001},
    {"table7.4/n256-rate0.01", 3, 3, 0, 20003},
    {"fig7.1/n64-k8", 244, 278, 0, 20278},
    {"eq5.2/n64-gaussian-2c", 27, 61, 27, 20061},
    {"vlsa/n128", 0, 1, 0, 20001},
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
                                            ::testing::Values(1, 4, 8, 16),
                                            ::testing::Values(1, 4)),
                         pin_name);

// The chain-profile side of the registry, pinned the same way (fig6.1 runs
// the uniform source through the batched engine loop; its histogram is a
// pure function of the shard streams — uniform-plane-v2 value).
TEST(RegistryPinTest, ChainProfileHistogramMatchesPreBlockRngBaseline) {
  const ChainProfileExperiment* experiment =
      find_chain_profile_experiment("fig6.1/uniform-unsigned");
  ASSERT_NE(experiment, nullptr);
  for (const int threads : {1, 4}) {
    const auto profile =
        run_experiment(*experiment, {.samples = kSamples, .seed = kSeed, .threads = threads});
    EXPECT_EQ(profile.additions(), kSamples);
    std::uint64_t fnv = 1469598103934665603ULL;
    for (const std::uint64_t count : profile.counts()) {
      fnv ^= count;
      fnv *= 1099511628211ULL;
    }
    EXPECT_EQ(fnv, 17340686134405563113ULL) << "threads " << threads;
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
    {"table7.4/n64-rate0.01", "batched", 0x90c1a48e16263d22ULL},
    {"table7.4/n64-rate0.01", "scalar", 0x42412f7c91cc452bULL},
    {"table7.4/n64-rate0.25", "batched", 0x9051c6881ed3cab2ULL},
    {"table7.4/n64-rate0.25", "scalar", 0xe2d6db8c082d4533ULL},
    {"table7.4/n128-rate0.01", "batched", 0xeba767fb6656109bULL},
    {"table7.4/n128-rate0.01", "scalar", 0x7d5d0bd5ac2583dcULL},
    {"table7.4/n128-rate0.25", "batched", 0x08ef874c82b340c7ULL},
    {"table7.4/n128-rate0.25", "scalar", 0xde964b4d38dd9a74ULL},
    {"table7.4/n256-rate0.01", "batched", 0xc5b2a75bd26d93f2ULL},
    {"table7.4/n256-rate0.01", "scalar", 0x883dea86ee689365ULL},
    {"table7.4/n256-rate0.25", "batched", 0x02dc8f17396e942cULL},
    {"table7.4/n256-rate0.25", "scalar", 0xb423b013bee667fdULL},
    {"table7.4/n512-rate0.01", "batched", 0xb3446bf045afb6a9ULL},
    {"table7.4/n512-rate0.01", "scalar", 0xc5212016b9e2623aULL},
    {"table7.4/n512-rate0.25", "batched", 0xbeee27092155f087ULL},
    {"table7.4/n512-rate0.25", "scalar", 0xa9cd0aecffd19038ULL},
    {"fig7.1/n64-k6", "batched", 0x7f1aef6b6ca7ff72ULL},
    {"fig7.1/n64-k6", "scalar", 0x41af54e68d6ee827ULL},
    {"fig7.1/n64-k8", "batched", 0x90fef284ce4405bcULL},
    {"fig7.1/n64-k8", "scalar", 0xfc60311291632891ULL},
    {"fig7.1/n64-k10", "batched", 0xfb6cee766923d6e6ULL},
    {"fig7.1/n64-k10", "scalar", 0x8a41f98ec31ae77fULL},
    {"fig7.1/n64-k12", "batched", 0xd5a364a8dac3e05cULL},
    {"fig7.1/n64-k12", "scalar", 0x322080f9a82d480bULL},
    {"fig7.1/n64-k14", "batched", 0xe2687ec06d7a71fcULL},
    {"fig7.1/n64-k14", "scalar", 0x69fc7f99578e606dULL},
    {"fig7.1/n64-k16", "batched", 0x04dc01447ce73eb4ULL},
    {"fig7.1/n64-k16", "scalar", 0xb4550b5f7965cf15ULL},
    {"fig7.1/n128-k6", "batched", 0x860f80630d62c3d7ULL},
    {"fig7.1/n128-k6", "scalar", 0x6d27ab50300fbfd0ULL},
    {"fig7.1/n128-k8", "batched", 0xae13fdb3aaa2a151ULL},
    {"fig7.1/n128-k8", "scalar", 0x352d43e91d708994ULL},
    {"fig7.1/n128-k10", "batched", 0xd9cb93348818e574ULL},
    {"fig7.1/n128-k10", "scalar", 0x5e3413c74c4161cbULL},
    {"fig7.1/n128-k12", "batched", 0x6a2d5635489523b2ULL},
    {"fig7.1/n128-k12", "scalar", 0xf7da9b205f579f25ULL},
    {"fig7.1/n128-k14", "batched", 0x5b9a04945418d8a0ULL},
    {"fig7.1/n128-k14", "scalar", 0x0a140ffaac532a69ULL},
    {"fig7.1/n128-k16", "batched", 0x711a5a4f848e146cULL},
    {"fig7.1/n128-k16", "scalar", 0xc0723b97931ee69dULL},
    {"fig7.1/n256-k6", "batched", 0x495ef5c2fe49ca3fULL},
    {"fig7.1/n256-k6", "scalar", 0x2af7b105e428737cULL},
    {"fig7.1/n256-k8", "batched", 0x95f40552a19acfa8ULL},
    {"fig7.1/n256-k8", "scalar", 0x0f58069962e15b2dULL},
    {"fig7.1/n256-k10", "batched", 0xfaf06b305b03bd54ULL},
    {"fig7.1/n256-k10", "scalar", 0x6a483f00ef9b3b53ULL},
    {"fig7.1/n256-k12", "batched", 0xd7b8456ab51ea222ULL},
    {"fig7.1/n256-k12", "scalar", 0x8707eae926ebfb6bULL},
    {"fig7.1/n256-k14", "batched", 0x039cb0b57ce890d0ULL},
    {"fig7.1/n256-k14", "scalar", 0x5ff58ee27dbeea5fULL},
    {"fig7.1/n256-k16", "batched", 0xd3582d1abb395a32ULL},
    {"fig7.1/n256-k16", "scalar", 0xfe3457a5e6f64ea5ULL},
    {"fig7.1/n512-k6", "batched", 0x15c3682350b7f03aULL},
    {"fig7.1/n512-k6", "scalar", 0x6c965da732fe4eafULL},
    {"fig7.1/n512-k8", "batched", 0xebde9c140dbcd611ULL},
    {"fig7.1/n512-k8", "scalar", 0x7599e064c8456946ULL},
    {"fig7.1/n512-k10", "batched", 0xedfefbb1357661c2ULL},
    {"fig7.1/n512-k10", "scalar", 0x1ed4faa01ddbbffbULL},
    {"fig7.1/n512-k12", "batched", 0xf472a3f840e0295eULL},
    {"fig7.1/n512-k12", "scalar", 0x6d291d9f7e24ec5bULL},
    {"fig7.1/n512-k14", "batched", 0xffc313dc37be02a0ULL},
    {"fig7.1/n512-k14", "scalar", 0x67d16db24a626813ULL},
    {"fig7.1/n512-k16", "batched", 0x7154640ebd99088eULL},
    {"fig7.1/n512-k16", "scalar", 0x2286683a628a44bfULL},
    {"eq5.2/n64-uniform", "batched", 0x62295e2d964ebc0dULL},
    {"eq5.2/n64-uniform", "scalar", 0x90ab9b5e8412557aULL},
    {"eq5.2/n64-gaussian-2c", "batched", 0xc9f774387833361aULL},
    {"eq5.2/n64-gaussian-2c", "scalar", 0x8bd904ebde13cb47ULL},
    {"eq5.2/n128-uniform", "batched", 0xeb1d13beca97aba8ULL},
    {"eq5.2/n128-uniform", "scalar", 0x6b19a40acd05eb71ULL},
    {"eq5.2/n128-gaussian-2c", "batched", 0x8903f44b5a17ed61ULL},
    {"eq5.2/n128-gaussian-2c", "scalar", 0x88880edb631a7034ULL},
    {"eq5.2/n256-uniform", "batched", 0x0e4ec3622d3e03c7ULL},
    {"eq5.2/n256-uniform", "scalar", 0x01cfc79d4f084b74ULL},
    {"eq5.2/n256-gaussian-2c", "batched", 0xe3ee8e838dacc629ULL},
    {"eq5.2/n256-gaussian-2c", "scalar", 0x86a85e2af9a99292ULL},
    {"eq5.2/n512-uniform", "batched", 0x1cde019cdd6502d2ULL},
    {"eq5.2/n512-uniform", "scalar", 0xe1d74df33812b7bfULL},
    {"eq5.2/n512-gaussian-2c", "batched", 0x4cc154fa2e495c20ULL},
    {"eq5.2/n512-gaussian-2c", "scalar", 0x321262a7cd59a4bdULL},
    {"vlsa/n64", "batched", 0x196e9251b844b6e2ULL},
    {"vlsa/n64", "scalar", 0xd9987ada28b81aebULL},
    {"vlsa/n128", "batched", 0x4ebf0cbb137775edULL},
    {"vlsa/n128", "scalar", 0xe08051cb3bb58e66ULL},
    {"vlsa/n256", "batched", 0xf98c10e729a1df0cULL},
    {"vlsa/n256", "scalar", 0x8a5bd7d0945ca0bdULL},
    {"vlsa/n512", "batched", 0xd29657dac8370b0dULL},
    {"vlsa/n512", "scalar", 0x0e93f6895a390c86ULL},
    {"fig6.1/uniform-unsigned", nullptr, 0x36e8f8ec641d4415ULL},
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
  std::optional<EvalPath> path;  // unset for chain profiles
  if (golden.eval_path != nullptr) {
    ASSERT_TRUE(parse_eval_path(golden.eval_path, path.emplace()));
  }
  const KeyResolution resolved = record_key(golden.experiment, kRecordSamples, kSeed, path);
  ASSERT_TRUE(resolved.ok()) << golden.experiment;
  const RecordKey& key = resolved.key;
  if (golden.eval_path == nullptr) {
    EXPECT_EQ(key.path, EvalPath::kScalar);
  }

  RunOptions options;
  options.threads = 1;
  const RecordRun run = run_record(key, options);
  EXPECT_EQ(fnv1a64(run.record), golden.fnv1a64) << run.record;
  EXPECT_FALSE(run.profile.has_value());

  // The key and the record agree on every field the disk tier validates.
  const JsonParse parsed = parse_json(run.record);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.value.find("experiment")->as_string(), key.experiment);
  EXPECT_EQ(parsed.value.find("eval_path")->as_string(), to_string(key.path));
  const JsonValue* version = parsed.value.find("stream_version");
  EXPECT_EQ(version == nullptr ? std::string() : version->as_string(), key.stream_version);
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
  EXPECT_EQ(record_key("table7.1/n65", 0, 1, EvalPath::kBatched).error,
            KeyError::kUnknownExperiment);
  EXPECT_EQ(record_key("table7.1/n65", 0, 1).error, KeyError::kUnknownExperiment);
  // A chain profile has no batched pipeline, so an explicit eval path for
  // one (either value) resolves no key; omitted, it keys the scalar path.
  EXPECT_EQ(record_key("fig6.1/uniform-unsigned", 0, 1, EvalPath::kBatched).error,
            KeyError::kEvalPathOnChainProfile);
  EXPECT_EQ(record_key("fig6.1/uniform-unsigned", 0, 1, EvalPath::kScalar).error,
            KeyError::kEvalPathOnChainProfile);
  EXPECT_TRUE(record_key("fig6.1/uniform-unsigned", 0, 1).ok());
  RecordKey unknown;
  unknown.experiment = "table7.1/n65";
  EXPECT_THROW((void)run_record(unknown, RunOptions{}), std::invalid_argument);
}

TEST(RegistryRecordPin, ZeroSamplesSelectsTheEntryDefault) {
  const KeyResolution chain = record_key("fig6.2/rsa-like", 0, 7);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain.key.samples, find_chain_profile_experiment("fig6.2/rsa-like")->default_samples);
  EXPECT_EQ(chain.key.seed, 7u);
  EXPECT_EQ(chain.key.path, EvalPath::kScalar);
  // The default applies whether or not the path was given, but a chain
  // profile with a path is still rejected rather than defaulted.
  const KeyResolution error_rate = record_key("table7.1/n64", 0, 7, EvalPath::kScalar);
  ASSERT_TRUE(error_rate.ok());
  EXPECT_EQ(error_rate.key.samples, find_error_rate_experiment("table7.1/n64")->default_samples);
  EXPECT_EQ(error_rate.key.path, EvalPath::kScalar);
  EXPECT_EQ(record_key("fig6.2/rsa-like", 0, 7, EvalPath::kScalar).error,
            KeyError::kEvalPathOnChainProfile);
}

}  // namespace
}  // namespace vlcsa::harness
