#pragma once
// Parallel sharded Monte Carlo engine.
//
// Every table/figure reproduction in the repo is a Monte Carlo run:
// draw `samples` operand pairs, push each through a behavioral model,
// fold per-sample observations into an accumulator.  This header provides
// that loop once, sharded across a thread pool, with a reproducibility
// contract the tests enforce:
//
//  * The sample stream is split into fixed-size shards.  Shard i draws from
//    its own RNG stream derived via std::seed_seq from (seed, i) — never
//    from the thread that happens to execute it.
//  * Each shard folds into its own accumulator; shard accumulators are
//    merged in shard-index order with operator+= after all workers join.
//
// Together these make the final accumulator bit-identical for any thread
// count (including 1), so `threads` is purely a wall-clock knob.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "arith/planeops.hpp"
#include "arith/rng.hpp"

namespace vlcsa::harness {

/// Samples per shard.  Small enough that typical runs (2*10^5 samples)
/// spread across every core, large enough that per-shard setup (source
/// clone, RNG warm-up) stays negligible.
inline constexpr std::uint64_t kDefaultShardSize = 1 << 14;

/// Thrown by run_sharded_blocks when RunOptions::stop was reached before the
/// run completed.  No merged accumulator exists at that point — callers (the
/// service's per-request timeout path) must treat the run as never having
/// produced a result, so a cancelled run can never write a partial record.
struct RunCancelled : std::runtime_error {
  RunCancelled() : std::runtime_error("run cancelled") {}
};

/// When a run must stop: at `deadline`, or once `*flag` is set — whichever
/// comes first.  The defaults (no deadline, null flag) never stop, and then
/// reached() reads neither the clock nor any atomic.  A plain value: the
/// flag it points at is owned elsewhere (the service's drain flag) and must
/// outlive every copy, which a long-lived owner makes trivially true.
struct RunStop {
  using Clock = std::chrono::steady_clock;
  Clock::time_point deadline = Clock::time_point::max();
  const std::atomic<bool>* flag = nullptr;

  [[nodiscard]] bool has_deadline() const { return deadline != Clock::time_point::max(); }
  [[nodiscard]] bool reached() const {
    if (flag != nullptr && flag->load()) return true;
    return has_deadline() && Clock::now() >= deadline;
  }
};

/// Plain snapshot of one run's execution profile (RunProfileCollector).
/// Pure observability: nothing here feeds a result record — records stay
/// functions of (experiment, samples, seed, eval path) only.  The counter
/// fields (shards, samples, blocks, rng_words) are exact and invariant
/// across thread counts and backends for a fixed lane width; the time
/// fields are cpu-seconds summed over shards (fill/eval) plus the
/// single-threaded merge, and naturally vary run to run.
struct RunProfile {
  std::uint64_t shards = 0;           // shards executed
  std::uint64_t samples = 0;          // samples folded, all shards
  std::uint64_t batch_blocks = 0;     // bit-sliced blocks evaluated
  std::uint64_t batched_samples = 0;  // samples through the batch pipeline
  std::uint64_t scalar_samples = 0;   // per-sample path (scalar runs)
  std::uint64_t rng_words = 0;        // BlockRng words consumed, all shards
  double fill_seconds = 0.0;          // operand fill_batch time (summed)
  double eval_seconds = 0.0;          // model step/evaluate_batch time (summed)
  double merge_seconds = 0.0;         // shard-order accumulator merge
  int threads = 0;                    // worker pool size actually used
  int lane_words = 0;                 // batch lane width (0 = per-sample path)
  std::string backend;                // active planeops backend name
};

/// Opt-in profiling sink threaded through RunOptions::profile.  All methods
/// are thread-safe (relaxed atomics — counters are independent, and every
/// field is published by the join before snapshot() runs); a null pointer in
/// RunOptions disables profiling at a single branch per shard (the batched
/// loop's untimed instantiation has none per block), so the default path
/// pays nothing.
class RunProfileCollector {
 public:
  void add_shard(std::uint64_t rng_words, std::uint64_t samples) {
    shards_.fetch_add(1, std::memory_order_relaxed);
    rng_words_.fetch_add(rng_words, std::memory_order_relaxed);
    samples_.fetch_add(samples, std::memory_order_relaxed);
  }
  void add_batch(std::uint64_t blocks, std::uint64_t samples) {
    batch_blocks_.fetch_add(blocks, std::memory_order_relaxed);
    batched_samples_.fetch_add(samples, std::memory_order_relaxed);
  }
  void add_scalar_samples(std::uint64_t samples) {
    scalar_samples_.fetch_add(samples, std::memory_order_relaxed);
  }
  void add_fill_ns(std::uint64_t ns) { fill_ns_.fetch_add(ns, std::memory_order_relaxed); }
  void add_eval_ns(std::uint64_t ns) { eval_ns_.fetch_add(ns, std::memory_order_relaxed); }
  void add_merge_ns(std::uint64_t ns) { merge_ns_.fetch_add(ns, std::memory_order_relaxed); }
  void set_threads(int threads) { threads_.store(threads, std::memory_order_relaxed); }
  void set_lane_words(int lane_words) {
    lane_words_.store(lane_words, std::memory_order_relaxed);
  }
  void set_backend(const char* backend) {
    backend_.store(backend, std::memory_order_relaxed);
  }

  [[nodiscard]] RunProfile snapshot() const {
    RunProfile out;
    out.shards = shards_.load(std::memory_order_relaxed);
    out.samples = samples_.load(std::memory_order_relaxed);
    out.batch_blocks = batch_blocks_.load(std::memory_order_relaxed);
    out.batched_samples = batched_samples_.load(std::memory_order_relaxed);
    out.scalar_samples = scalar_samples_.load(std::memory_order_relaxed);
    out.rng_words = rng_words_.load(std::memory_order_relaxed);
    out.fill_seconds = static_cast<double>(fill_ns_.load(std::memory_order_relaxed)) * 1e-9;
    out.eval_seconds = static_cast<double>(eval_ns_.load(std::memory_order_relaxed)) * 1e-9;
    out.merge_seconds = static_cast<double>(merge_ns_.load(std::memory_order_relaxed)) * 1e-9;
    out.threads = threads_.load(std::memory_order_relaxed);
    out.lane_words = lane_words_.load(std::memory_order_relaxed);
    const char* backend = backend_.load(std::memory_order_relaxed);
    if (backend != nullptr) out.backend = backend;
    return out;
  }

 private:
  std::atomic<std::uint64_t> shards_{0};
  std::atomic<std::uint64_t> samples_{0};
  std::atomic<std::uint64_t> batch_blocks_{0};
  std::atomic<std::uint64_t> batched_samples_{0};
  std::atomic<std::uint64_t> scalar_samples_{0};
  std::atomic<std::uint64_t> rng_words_{0};
  std::atomic<std::uint64_t> fill_ns_{0};
  std::atomic<std::uint64_t> eval_ns_{0};
  std::atomic<std::uint64_t> merge_ns_{0};
  std::atomic<int> threads_{0};
  std::atomic<int> lane_words_{0};
  std::atomic<const char*> backend_{nullptr};
};

/// Controls one sharded run.  `threads == 0` means "all hardware threads".
/// `lane_words == 0` means "the default batch width" (arith::default_lane_words());
/// like `threads`, it is purely a throughput knob — merged counters are
/// bit-identical at any lane width (operand streams are drawn in whole
/// 64-sample groups — 512-sample superblocks for the uniform source — and a
/// shard's masked last batch draws whole units just as per-sample draws do).
struct RunOptions {
  std::uint64_t samples = 0;
  std::uint64_t seed = 1;
  int threads = 0;
  std::uint64_t shard_size = kDefaultShardSize;
  int lane_words = 0;
  /// Cooperative cancellation: workers check stop.reached() before claiming
  /// each shard (block granularity), and once it holds the run throws
  /// RunCancelled instead of returning a merged accumulator.  A run that
  /// reaches its stop overshoots by at most one shard per worker.
  RunStop stop{};
  /// Opt-in execution profiling: when non-null, the engine (and the batched
  /// loop in montecarlo.cpp) record shard/block counts, RNG consumption and
  /// stage timings into it.  Null costs one branch per shard and nothing
  /// else; profiling never changes any counter or the RNG stream.
  RunProfileCollector* profile = nullptr;
};

/// `requested` if positive, else std::thread::hardware_concurrency()
/// (clamped to at least 1 — hardware_concurrency may return 0).
[[nodiscard]] int resolve_threads(int requested);

/// The per-shard RNG stream: all 128 bits of (seed, shard_index) feed the
/// seed_seq, so distinct shards and distinct seeds never collide.  The
/// engine draws from the block-generating arith::BlockRng (sequence-
/// identical to std::mt19937_64, so shard streams are unchanged from the
/// std-engine era); this is a thin alias over arith::make_stream_rng.
[[nodiscard]] arith::BlockRng make_shard_rng(std::uint64_t seed, std::uint64_t shard_index);

/// Runs `options.samples` samples sharded across a thread pool, handing each
/// shard to its kernel as one block.
///
/// `make_accumulator()` produces an empty accumulator; the accumulator type
/// must be copyable and define `operator+=` as the merge.  `make_kernel()`
/// is invoked once per *shard* (from worker threads — it must be safe to
/// call concurrently) and must return a callable
///
///     void kernel(arith::BlockRng& rng, Accumulator& acc, std::uint64_t count)
///
/// that draws and folds in exactly `count` samples.  Block granularity is
/// what lets the bit-sliced pipeline consume 64 samples per machine word
/// inside a shard (with a masked last batch for the remainder); per-sample
/// kernels should use run_sharded below.  Per-shard kernel construction is
/// what keeps stateful sample sources (e.g. std::normal_distribution's
/// cached second variate) from leaking state across shard boundaries.
template <typename AccumulatorFactory, typename BlockKernelFactory>
[[nodiscard]] auto run_sharded_blocks(const RunOptions& options,
                                      AccumulatorFactory&& make_accumulator,
                                      BlockKernelFactory&& make_kernel)
    -> std::decay_t<std::invoke_result_t<AccumulatorFactory&>> {
  using Accumulator = std::decay_t<std::invoke_result_t<AccumulatorFactory&>>;

  Accumulator merged = make_accumulator();
  const std::uint64_t shard_size =
      options.shard_size == 0 ? kDefaultShardSize : options.shard_size;
  const std::uint64_t shard_count = (options.samples + shard_size - 1) / shard_size;
  if (shard_count == 0) return merged;

  std::vector<Accumulator> partials(static_cast<std::size_t>(shard_count), merged);
  std::atomic<std::uint64_t> next_shard{0};
  std::atomic<bool> cancelled{false};
  std::mutex failure_mutex;
  std::exception_ptr failure;

  const auto worker = [&] {
    try {
      for (std::uint64_t shard = next_shard.fetch_add(1); shard < shard_count;
           shard = next_shard.fetch_add(1)) {
        if (options.stop.reached()) {
          cancelled.store(true, std::memory_order_relaxed);
          return;
        }
        auto kernel = make_kernel();
        auto rng = make_shard_rng(options.seed, shard);
        const std::uint64_t begin = shard * shard_size;
        const std::uint64_t count = std::min(shard_size, options.samples - begin);
        // Fold into a local accumulator and publish once per shard: adjacent
        // shard accumulators share cache lines, so writing partials[] per
        // sample would false-share between workers.
        Accumulator acc = partials[static_cast<std::size_t>(shard)];
        kernel(rng, acc, count);
        partials[static_cast<std::size_t>(shard)] = std::move(acc);
        if (options.profile != nullptr) options.profile->add_shard(rng.words_drawn(), count);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(failure_mutex);
      if (!failure) failure = std::current_exception();
    }
  };

  const std::uint64_t pool_size = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(resolve_threads(options.threads)), shard_count);
  if (pool_size <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(pool_size));
    for (std::uint64_t t = 0; t < pool_size; ++t) pool.emplace_back(worker);
    for (auto& thread : pool) thread.join();
  }
  if (failure) std::rethrow_exception(failure);
  // Cancellation outranks the partial work already folded: the caller asked
  // for `samples` samples and anything less must not look like a result.
  if (cancelled.load(std::memory_order_relaxed)) throw RunCancelled{};

  if (options.profile != nullptr) {
    options.profile->set_threads(static_cast<int>(pool_size));
    options.profile->set_backend(
        arith::planeops::to_string(arith::planeops::active_backend()));
    const auto merge_start = std::chrono::steady_clock::now();
    for (const Accumulator& partial : partials) merged += partial;
    options.profile->add_merge_ns(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - merge_start)
            .count()));
  } else {
    for (const Accumulator& partial : partials) merged += partial;
  }
  return merged;
}

/// Per-sample variant: `make_kernel()` returns
///
///     void kernel(arith::BlockRng& rng, Accumulator& acc)
///
/// drawing one sample per call.  Thin wrapper over run_sharded_blocks, so
/// both granularities share the same sharding/merge machinery and therefore
/// the same reproducibility contract.
template <typename AccumulatorFactory, typename KernelFactory>
[[nodiscard]] auto run_sharded(const RunOptions& options, AccumulatorFactory&& make_accumulator,
                               KernelFactory&& make_kernel)
    -> std::decay_t<std::invoke_result_t<AccumulatorFactory&>> {
  using Accumulator = std::decay_t<std::invoke_result_t<AccumulatorFactory&>>;
  return run_sharded_blocks(options, std::forward<AccumulatorFactory>(make_accumulator), [&] {
    return [kernel = make_kernel(), profile = options.profile](
               arith::BlockRng& rng, Accumulator& acc, std::uint64_t count) mutable {
      for (std::uint64_t i = 0; i < count; ++i) kernel(rng, acc);
      if (profile != nullptr) profile->add_scalar_samples(count);
    };
  });
}

}  // namespace vlcsa::harness
