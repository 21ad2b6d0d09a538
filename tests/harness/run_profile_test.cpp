// Tests for the engine's opt-in run profiling (harness/engine.hpp
// RunProfile/RunProfileCollector): counter totals must be consistent across
// thread counts, eval paths and backends, the batched/scalar sample split
// must account for every requested sample, and the rendered profile record
// (harness/report.hpp render_run_profile) must parse back through the strict
// JSON parser with every documented field present, and parse_run_profile must
// invert it exactly and reject anything else.  RunProfile merges with +=.

#include "harness/engine.hpp"

#include <gtest/gtest.h>

#include <string>

#include "arith/planeops.hpp"
#include "harness/experiments.hpp"
#include "harness/json.hpp"
#include "harness/report.hpp"

namespace vlcsa::harness {
namespace {

namespace planeops = arith::planeops;

/// Runs the named error-rate experiment with a collector attached and
/// returns the snapshot (plus the result's sample count through `samples`).
RunProfile profiled_run(const char* name, std::uint64_t samples, int threads,
                        EvalPath path, std::uint64_t* result_samples = nullptr) {
  const auto* experiment = find_error_rate_experiment(name);
  EXPECT_NE(experiment, nullptr) << name;
  RunOptions options;
  options.samples = samples;
  options.seed = 3;
  options.threads = threads;
  RunProfileCollector collector;
  options.profile = &collector;
  const ErrorRateResult result = run_experiment(*experiment, options, path);
  if (result_samples != nullptr) *result_samples = result.samples;
  return collector.snapshot();
}

TEST(RunProfile, TotalsAccountForEveryRequestedSample) {
  constexpr std::uint64_t kSamples = 20000;
  std::uint64_t result_samples = 0;
  const RunProfile profile =
      profiled_run("fig7.1/n64-k6", kSamples, 1, EvalPath::kBatched, &result_samples);
  EXPECT_EQ(result_samples, kSamples);
  EXPECT_EQ(profile.samples, kSamples);
  // Every sample went through exactly one of the two pipelines.
  EXPECT_EQ(profile.batched_samples + profile.scalar_samples, kSamples);
  EXPECT_GT(profile.shards, 0u);
  EXPECT_GT(profile.batch_blocks, 0u);
  EXPECT_GT(profile.batched_samples, 0u);
  EXPECT_GT(profile.rng_words, 0u);
  EXPECT_GE(profile.fill_seconds, 0.0);
  EXPECT_GE(profile.eval_seconds, 0.0);
  EXPECT_GE(profile.merge_seconds, 0.0);
  EXPECT_EQ(profile.threads, 1);
  EXPECT_GT(profile.lane_words, 0);
  EXPECT_FALSE(profile.backend.empty());
}

TEST(RunProfile, CountersAreThreadCountInvariant) {
  constexpr std::uint64_t kSamples = 20000;
  const RunProfile one = profiled_run("fig7.1/n64-k6", kSamples, 1, EvalPath::kBatched);
  const RunProfile four = profiled_run("fig7.1/n64-k6", kSamples, 4, EvalPath::kBatched);
  // Work counters describe the run, not the schedule: identical shard plan
  // and RNG consumption at any pool size (timings naturally differ).
  EXPECT_EQ(one.shards, four.shards);
  EXPECT_EQ(one.samples, four.samples);
  EXPECT_EQ(one.batch_blocks, four.batch_blocks);
  EXPECT_EQ(one.batched_samples, four.batched_samples);
  EXPECT_EQ(one.scalar_samples, four.scalar_samples);
  EXPECT_EQ(one.rng_words, four.rng_words);
  EXPECT_EQ(one.threads, 1);
  // The profile reports the pool actually used: 20000 samples is 2 shards
  // (16384-sample default), so a 4-thread request runs on 2 workers.
  EXPECT_EQ(four.threads, 2);
}

TEST(RunProfile, ScalarPathReportsNoBatchWork) {
  constexpr std::uint64_t kSamples = 4000;
  const RunProfile profile = profiled_run("fig7.1/n64-k6", kSamples, 1, EvalPath::kScalar);
  EXPECT_EQ(profile.samples, kSamples);
  EXPECT_EQ(profile.batch_blocks, 0u);
  EXPECT_EQ(profile.batched_samples, 0u);
  EXPECT_EQ(profile.scalar_samples, kSamples);
  EXPECT_EQ(profile.lane_words, 0);
}

TEST(RunProfile, BackendLabelTracksThePlaneopsDispatch) {
  const planeops::Backend original = planeops::active_backend();
  ASSERT_TRUE(planeops::set_backend("scalar"));
  const RunProfile scalar = profiled_run("fig7.1/n64-k6", 8000, 1, EvalPath::kBatched);
  ASSERT_TRUE(planeops::set_backend(original));
  EXPECT_EQ(scalar.backend, "scalar");
  // The RNG stream is backend-invariant (the determinism contract), but the
  // block count is not: the default lane width is dispatch-aware, so wider
  // backends run fewer, larger blocks over the same samples.
  const RunProfile dispatched = profiled_run("fig7.1/n64-k6", 8000, 1, EvalPath::kBatched);
  EXPECT_EQ(to_string(planeops::active_backend()), dispatched.backend);
  EXPECT_EQ(scalar.rng_words, dispatched.rng_words);
  EXPECT_EQ(scalar.samples, dispatched.samples);
  EXPECT_EQ(scalar.batched_samples + scalar.scalar_samples,
            dispatched.batched_samples + dispatched.scalar_samples);
}

TEST(RunProfile, ChainProfileRunsAreProfiledToo) {
  const auto* experiment = find_chain_profile_experiment("fig6.1/uniform-unsigned");
  ASSERT_NE(experiment, nullptr);
  RunOptions options;
  options.samples = 8000;
  options.seed = 5;
  options.threads = 2;
  RunProfileCollector collector;
  options.profile = &collector;
  (void)run_experiment(*experiment, options);
  const RunProfile profile = collector.snapshot();
  EXPECT_EQ(profile.samples, 8000u);
  EXPECT_GT(profile.shards, 0u);
  EXPECT_GT(profile.rng_words, 0u);
  // 8000 samples fit one shard, so the 2-thread request runs on 1 worker.
  EXPECT_EQ(profile.threads, 1);
}

TEST(RunProfile, RenderedRecordParsesWithEveryField) {
  const RunProfile profile = profiled_run("fig7.1/n64-k6", 4000, 1, EvalPath::kBatched);
  const JsonParse parsed = parse_json(render_run_profile(profile));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.value.kind(), JsonValue::Kind::kObject);
  for (const char* field :
       {"shards", "samples", "batch_blocks", "batched_samples", "scalar_samples",
        "rng_words", "fill_seconds", "eval_seconds", "merge_seconds", "threads",
        "lane_words", "backend"}) {
    EXPECT_NE(parsed.value.find(field), nullptr) << field;
  }
  std::uint64_t samples = 0;
  ASSERT_TRUE(parsed.value.find("samples")->to_u64(samples));
  EXPECT_EQ(samples, 4000u);
}

TEST(RunProfile, ParseInvertsRender) {
  const RunProfile profile = profiled_run("fig7.1/n64-k6", 20000, 2, EvalPath::kBatched);
  const JsonParse parsed = parse_json(render_run_profile(profile));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parse_run_profile(parsed.value), profile);
}

TEST(RunProfile, ParseRejectsAMissingExtraOrMistypedField) {
  const std::string rendered =
      render_run_profile(profiled_run("fig7.1/n64-k6", 4000, 1, EvalPath::kBatched));
  const JsonParse parsed = parse_json(rendered);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const auto& members = parsed.value.members();
  // Re-renders the profile from its own field bytes, minus member `skip`.
  const auto without = [&](std::size_t skip) {
    JsonObject object;
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i == skip) continue;
      object.add_json(members[i].first, std::string(members[i].second.source(rendered)));
    }
    return object;
  };
  ASSERT_TRUE(parse_run_profile(parse_json(without(members.size()).render_line()).value));
  for (std::size_t skip = 0; skip < members.size(); ++skip) {
    EXPECT_FALSE(parse_run_profile(parse_json(without(skip).render_line()).value))
        << "accepted without " << members[skip].first;
  }
  JsonObject extra = without(members.size());
  extra.add("fold_seconds", 0.0);
  EXPECT_FALSE(parse_run_profile(parse_json(extra.render_line()).value));
  for (const char* mistyped :
       {R"("shards": "1")", R"("threads": -1)", R"("fill_seconds": null)", R"("backend": 0)"}) {
    std::string text = rendered;
    const std::string key = std::string(mistyped).substr(0, std::string(mistyped).find(':') + 1);
    const std::size_t at = text.find(key);
    ASSERT_NE(at, std::string::npos) << key;
    text.replace(at, text.find_first_of(",}", at) - at, mistyped);
    const JsonParse bad = parse_json(text);
    ASSERT_TRUE(bad.ok()) << bad.error;
    EXPECT_FALSE(parse_run_profile(bad.value)) << mistyped;
  }
  EXPECT_FALSE(parse_run_profile(parse_json("[]").value));
}

TEST(RunProfile, MergeSumsCountersAndTakesMaxThreadsAndLastBackend) {
  RunProfile a;
  a.shards = 2;
  a.samples = 100;
  a.rng_words = 7;
  a.fill_seconds = 0.5;
  a.threads = 4;
  a.lane_words = 8;
  a.backend = "avx2";
  RunProfile b;
  b.shards = 1;
  b.samples = 50;
  b.rng_words = 3;
  b.fill_seconds = 0.25;
  b.threads = 2;
  RunProfile merged = a;
  merged += b;
  EXPECT_EQ(merged.shards, 3u);
  EXPECT_EQ(merged.samples, 150u);
  EXPECT_EQ(merged.rng_words, 10u);
  EXPECT_EQ(merged.fill_seconds, 0.75);
  EXPECT_EQ(merged.threads, 4);
  EXPECT_EQ(merged.lane_words, 8);
  EXPECT_EQ(merged.backend, "avx2");  // an empty backend never overwrites
  b.backend = "scalar";
  merged += b;
  EXPECT_EQ(merged.backend, "scalar");
  merged += RunProfile{};
  EXPECT_EQ(merged.shards, 4u);
}

}  // namespace
}  // namespace vlcsa::harness
