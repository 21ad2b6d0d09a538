#include "harness/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>

#include "arith/distributions.hpp"
#include "harness/montecarlo.hpp"

namespace vlcsa::harness {
namespace {

bool identical(const ErrorRateResult& a, const ErrorRateResult& b) {
  return a.samples == b.samples && a.actual_errors == b.actual_errors &&
         a.nominal_errors == b.nominal_errors && a.false_negatives == b.false_negatives &&
         a.either_wrong == b.either_wrong && a.emitted_wrong == b.emitted_wrong &&
         a.total_cycles == b.total_cycles;
}

/// Trivial accumulator: sums raw RNG draws, so any change to shard
/// decomposition or stream derivation changes the value.
struct DrawSum {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  DrawSum& operator+=(const DrawSum& other) {
    count += other.count;
    sum += other.sum;
    return *this;
  }
};

DrawSum run_draw_sum(std::uint64_t samples, std::uint64_t seed, int threads,
                     std::uint64_t shard_size = kDefaultShardSize) {
  return run_sharded(
      RunOptions{samples, seed, threads, shard_size}, [] { return DrawSum{}; },
      [] {
        return [](vlcsa::arith::BlockRng& rng, DrawSum& acc) {
          ++acc.count;
          acc.sum += rng();
        };
      });
}

TEST(Engine, ResolveThreadsHonorsRequestAndDefaults) {
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_GE(resolve_threads(0), 1);
  EXPECT_GE(resolve_threads(-2), 1);
}

TEST(Engine, ShardRngStreamsAreDistinctAndDeterministic) {
  auto r0 = make_shard_rng(1, 0);
  auto r0_again = make_shard_rng(1, 0);
  auto r1 = make_shard_rng(1, 1);
  auto other_seed = make_shard_rng(2, 0);
  EXPECT_EQ(r0(), r0_again());
  EXPECT_NE(r0(), r1());
  EXPECT_NE(make_shard_rng(1, 0)(), other_seed());
}

TEST(Engine, ThreadCountDoesNotChangeTheResult) {
  // Samples chosen to leave a partial trailing shard.
  const std::uint64_t samples = 3 * kDefaultShardSize + 1234;
  const auto reference = run_draw_sum(samples, 42, 1);
  EXPECT_EQ(reference.count, samples);
  for (const int threads : {2, 4, 8}) {
    const auto parallel = run_draw_sum(samples, 42, threads);
    EXPECT_EQ(parallel.count, reference.count) << "threads=" << threads;
    EXPECT_EQ(parallel.sum, reference.sum) << "threads=" << threads;
  }
}

TEST(Engine, ThreadsBeyondShardCountAreHarmless) {
  const auto reference = run_draw_sum(100, 7, 1);
  const auto oversubscribed = run_draw_sum(100, 7, 16);
  EXPECT_EQ(reference.sum, oversubscribed.sum);
}

TEST(Engine, ZeroSamplesProducesEmptyAccumulator) {
  const auto result = run_draw_sum(0, 1, 4);
  EXPECT_EQ(result.count, 0u);
  EXPECT_EQ(result.sum, 0u);
}

TEST(Engine, SeedSelectsTheStream) {
  EXPECT_NE(run_draw_sum(1000, 1, 4).sum, run_draw_sum(1000, 2, 4).sum);
}

TEST(Engine, KernelExceptionsPropagate) {
  const RunOptions options{1000, 1, 4, 64};
  EXPECT_THROW(
      (void)run_sharded(
          options, [] { return DrawSum{}; },
          [] {
            return [](vlcsa::arith::BlockRng&, DrawSum&) { throw std::runtime_error("boom"); };
          }),
      std::runtime_error);
}

/// run_sharded over DrawSum with `stop`, counting the shards that started.
DrawSum run_draw_sum_with_stop(const RunStop& stop, int threads,
                               std::atomic<int>& shards_started) {
  RunOptions options{4 * kDefaultShardSize, 1, threads};
  options.stop = stop;
  return run_sharded(options, [] { return DrawSum{}; },
                     [&shards_started] {
                       shards_started.fetch_add(1);
                       return [](vlcsa::arith::BlockRng& rng, DrawSum& acc) {
                         ++acc.count;
                         acc.sum += rng();
                       };
                     });
}

TEST(Engine, StopFlagAlreadySetCancelsBeforeAnyShard) {
  const std::atomic<bool> flag{true};
  RunStop stop;
  stop.flag = &flag;
  for (const int threads : {1, 4}) {
    std::atomic<int> shards_started{0};
    EXPECT_THROW((void)run_draw_sum_with_stop(stop, threads, shards_started), RunCancelled)
        << "threads=" << threads;
    EXPECT_EQ(shards_started.load(), 0) << "threads=" << threads;
  }
}

TEST(Engine, PastDeadlineCancels) {
  RunStop stop;
  stop.deadline = RunStop::Clock::now() - std::chrono::milliseconds(1);
  for (const int threads : {1, 4}) {
    std::atomic<int> shards_started{0};
    EXPECT_THROW((void)run_draw_sum_with_stop(stop, threads, shards_started), RunCancelled)
        << "threads=" << threads;
    EXPECT_EQ(shards_started.load(), 0) << "threads=" << threads;
  }
}

TEST(Engine, UnreachedStopLeavesCountersUnchanged) {
  // A default stop (no deadline, null flag) and one that is armed but never
  // reached must both match a run with default RunOptions, counter for
  // counter.
  const spec::VlcsaConfig config{64, 8, spec::ScsaVariant::kScsa1};
  auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, 64);
  const std::atomic<bool> unset{false};
  RunStop armed;
  armed.deadline = RunStop::Clock::now() + std::chrono::hours(1);
  armed.flag = &unset;
  for (const int threads : {1, 4}) {
    RunOptions plain;
    plain.samples = 3 * kDefaultShardSize + 77;
    plain.seed = 5;
    plain.threads = threads;
    const auto reference = run_vlcsa(config, *source, plain, EvalPath::kBatched);
    RunOptions defaulted = plain;
    defaulted.stop = RunStop{};
    RunOptions with_armed = plain;
    with_armed.stop = armed;
    EXPECT_TRUE(identical(reference, run_vlcsa(config, *source, defaulted, EvalPath::kBatched)))
        << "threads=" << threads;
    EXPECT_TRUE(identical(reference, run_vlcsa(config, *source, with_armed, EvalPath::kBatched)))
        << "threads=" << threads;
    EXPECT_EQ(reference.samples, plain.samples);
  }
}

TEST(Engine, ErrorRateResultMergeAddsEveryCounter) {
  ErrorRateResult a;
  a.samples = 10;
  a.actual_errors = 1;
  a.nominal_errors = 2;
  a.false_negatives = 0;
  a.either_wrong = 1;
  a.emitted_wrong = 0;
  a.total_cycles = 12;
  ErrorRateResult b = a;
  b.samples = 5;
  b.total_cycles = 6;
  a += b;
  EXPECT_EQ(a.samples, 15u);
  EXPECT_EQ(a.actual_errors, 2u);
  EXPECT_EQ(a.nominal_errors, 4u);
  EXPECT_EQ(a.either_wrong, 2u);
  EXPECT_EQ(a.total_cycles, 18u);
}

TEST(Engine, VlcsaRunIsThreadCountInvariant) {
  // The tentpole guarantee: same (seed, samples) at 1, 4 and 8 threads must
  // produce the identical ErrorRateResult, field for field.
  const spec::VlcsaConfig config{64, 10, spec::ScsaVariant::kScsa2};
  auto source = arith::make_source(arith::InputDistribution::kGaussianTwos, 64,
                                   arith::GaussianParams{0.0, 4294967296.0});
  const auto t1 = run_vlcsa(config, *source, 50000, 42, 1);
  const auto t4 = run_vlcsa(config, *source, 50000, 42, 4);
  const auto t8 = run_vlcsa(config, *source, 50000, 42, 8);
  EXPECT_TRUE(identical(t1, t4));
  EXPECT_TRUE(identical(t1, t8));
  EXPECT_EQ(t1.samples, 50000u);
}

TEST(Engine, VlsaRunIsThreadCountInvariant) {
  const spec::VlsaConfig config{64, 8};
  auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, 64);
  const auto t1 = run_vlsa(config, *source, 40000, 11, 1);
  const auto t8 = run_vlsa(config, *source, 40000, 11, 8);
  EXPECT_TRUE(identical(t1, t8));
}

TEST(Engine, InvariantsHoldUnderParallelMerge) {
  // nominal >= actual and false_negatives == 0 must survive the shard merge,
  // not just single-threaded accumulation.
  const spec::VlcsaConfig config{64, 8, spec::ScsaVariant::kScsa1};
  auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, 64);
  const auto r = run_vlcsa(config, *source, 60000, 13, 8);
  EXPECT_EQ(r.false_negatives, 0u);
  EXPECT_EQ(r.emitted_wrong, 0u);
  EXPECT_GE(r.nominal_errors, r.actual_errors);
  EXPECT_GT(r.nominal_errors, 0u);
  EXPECT_NEAR(r.average_cycles(), 1.0 + r.nominal_rate(), 1e-12);
}

TEST(Engine, ShardSizeIsPartOfTheContract) {
  // Different shard sizes give different (but individually deterministic)
  // streams — documented so nobody "tunes" it expecting identical results.
  const auto a = run_draw_sum(10000, 5, 4, 1024);
  const auto b = run_draw_sum(10000, 5, 4, 4096);
  EXPECT_EQ(a.count, b.count);
  EXPECT_NE(a.sum, b.sum);
}

TEST(Engine, SourceStreamStateDoesNotLeakAcrossShards) {
  // Gaussian sources cache a second Box-Muller variate; the engine must
  // clone per shard so the cache never straddles a shard boundary.  Run the
  // same experiment twice at different thread counts — any leak shows up as
  // a diverging stream.
  const spec::VlcsaConfig config{32, 6, spec::ScsaVariant::kScsa1};
  auto source = arith::make_source(arith::InputDistribution::kGaussianUnsigned, 32,
                                   arith::GaussianParams{0.0, 1048576.0});
  const auto t1 = run_vlcsa(config, *source, 40000, 3, 1);
  const auto t5 = run_vlcsa(config, *source, 40000, 3, 5);
  EXPECT_TRUE(identical(t1, t5));
}

}  // namespace
}  // namespace vlcsa::harness
