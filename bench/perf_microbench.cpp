// Google-benchmark microbenches for the library's hot paths: big-integer
// addition, behavioral SCSA/VLSA evaluation (scalar and bit-sliced at
// several lane widths), the plane-kernel layer per backend, the carry-chain
// profile (per addition and per batch), the RNG and
// Gaussian sampling subsystems against the per-call references they
// replaced, bit-sliced netlist simulation, the optimizer, static timing, the
// batched error-rate loop end to end and the service's cached-hit request —
// the costs that bound every Monte Carlo and synthesis experiment above.
//
// These are the kernel micro-timings.  The machine-readable record is
// google-benchmark's own JSON, whose "context" block carries the host (CPUs,
// MHz, caches, build type):
//
//   perf_microbench --benchmark_filter='Plane|Rng|GaussianFill|ErrorRateSamples|EvaluateBatch|ServiceCachedHit|Chain'
//                   --benchmark_out=BENCH_batch.json --benchmark_out_format=json
//
// End-to-end and per-layer numbers come from perfbench/ (BENCHMARK.json).

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "adders/adders.hpp"
#include "arith/apint.hpp"
#include "arith/bitslice.hpp"
#include "arith/carry_chain.hpp"
#include "arith/distributions.hpp"
#include "arith/planeops.hpp"
#include "harness/montecarlo.hpp"
#include "netlist/opt.hpp"
#include "netlist/simulator.hpp"
#include "netlist/timing.hpp"
#include "service/service.hpp"
#include "speculative/error_model.hpp"
#include "speculative/scsa.hpp"
#include "speculative/vlsa.hpp"

namespace {

using namespace vlcsa;
using arith::ApInt;
namespace planeops = arith::planeops;

void BM_ApIntAdd(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  vlcsa::arith::BlockRng rng(1);
  const ApInt a = ApInt::random(width, rng);
  const ApInt b = ApInt::random(width, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApInt::add(a, b));
  }
}
BENCHMARK(BM_ApIntAdd)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// Benches whose last arg is a backend (the planeops::Backend value: 0 scalar,
// 1 avx2, 2 avx512) pin it for their own run and restore dispatch on exit,
// so orderings never leak between benches; a backend this host/build lacks
// is reported as a skipped row.

class BackendScope {
 public:
  BackendScope(benchmark::State& state, std::int64_t backend)
      : prev_(planeops::active_backend()) {
    const auto wanted = static_cast<planeops::Backend>(backend);
    if (!planeops::set_backend(wanted)) {
      state.SkipWithError((std::string(planeops::to_string(wanted)) +
                           " backend unavailable on this host")
                              .c_str());
    }
  }
  // Restore the pre-bench backend, so a VLCSA_FORCE_BACKEND pin survives.
  ~BackendScope() { planeops::set_backend(prev_); }

 private:
  planeops::Backend prev_;
};

void BM_ScsaEvaluate(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const spec::ScsaModel model(
      spec::ScsaConfig{width, spec::min_window_for_error_rate(width, 1e-4)});
  vlcsa::arith::BlockRng rng(2);
  const ApInt a = ApInt::random(width, rng);
  const ApInt b = ApInt::random(width, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.evaluate(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScsaEvaluate)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

/// The (width, lane_words) shapes of the batched model benches, each once
/// per backend.
void batch_shapes_per_backend(benchmark::internal::Benchmark* bench) {
  for (const auto& [width, lane_words] : {std::pair{64, 1}, {64, 4}, {128, 4}, {256, 4},
                                          {256, 8}, {512, 1}, {512, 4}, {512, 8}}) {
    for (int backend = 0; backend < 3; ++backend) bench->Args({width, lane_words, backend});
  }
}

// The bit-sliced counterpart: one pass evaluates 64 * lane_words samples, so
// items/sec is directly comparable with BM_ScsaEvaluate.  Args: (width,
// lane_words, backend).
void BM_ScsaEvaluateBatch(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const int lane_words = static_cast<int>(state.range(1));
  const BackendScope scope(state, state.range(2));
  const spec::ScsaModel model(
      spec::ScsaConfig{width, spec::min_window_for_error_rate(width, 1e-4)});
  vlcsa::arith::BlockRng rng(2);
  arith::BitSlicedBatch batch(width, lane_words);
  auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, width);
  source->fill_batch(rng, batch);
  spec::ScsaBatchEvaluation ev;
  for (auto _ : state) {
    model.evaluate_batch(batch, ev);
    benchmark::DoNotOptimize(ev.spec0_wrong.data());
  }
  state.SetItemsProcessed(state.iterations() * 64 * lane_words);
  state.SetLabel(to_string(planeops::active_backend()));
}
BENCHMARK(BM_ScsaEvaluateBatch)->Apply(batch_shapes_per_backend);

void BM_VlsaEvaluate(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const spec::VlsaModel model(
      spec::VlsaConfig{width, spec::vlsa_published_chain_length(width)});
  vlcsa::arith::BlockRng rng(3);
  const ApInt a = ApInt::random(width, rng);
  const ApInt b = ApInt::random(width, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.evaluate(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VlsaEvaluate)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// Args: (width, lane_words, backend).
void BM_VlsaEvaluateBatch(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const int lane_words = static_cast<int>(state.range(1));
  const BackendScope scope(state, state.range(2));
  const spec::VlsaModel model(
      spec::VlsaConfig{width, spec::vlsa_published_chain_length(width)});
  vlcsa::arith::BlockRng rng(3);
  arith::BitSlicedBatch batch(width, lane_words);
  auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, width);
  source->fill_batch(rng, batch);
  spec::VlsaBatchEvaluation ev;
  for (auto _ : state) {
    model.evaluate_batch(batch, ev);
    benchmark::DoNotOptimize(ev.spec_wrong.data());
  }
  state.SetItemsProcessed(state.iterations() * 64 * lane_words);
  state.SetLabel(to_string(planeops::active_backend()));
}
BENCHMARK(BM_VlsaEvaluateBatch)->Apply(batch_shapes_per_backend);

// ---- 64x64 bit transpose ---------------------------------------------------
// One body on every backend: transpose_64x64 is not dispatched.

void BM_PlaneTranspose64x64(benchmark::State& state) {
  vlcsa::arith::BlockRng rng(9);
  alignas(64) std::uint64_t block[64];
  for (auto& row : block) row = rng();
  for (auto _ : state) {
    planeops::transpose_64x64(block);
    benchmark::DoNotOptimize(&block[0]);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_PlaneTranspose64x64);

// ---- carry-chain profile ---------------------------------------------------
// The Figs 6.1-6.5 histogram kernel (planeops::chain_histogram, one body on
// every backend) against the per-addition record() it replaced, on the same
// 512 pairs: fig6.5's two's-complement Gaussian operands (sigma = 2^20),
// whose sign-extension chains make the kernel's AND run longest.

arith::BitSlicedBatch chain_profile_batch(int width) {
  arith::BitSlicedBatch batch(width, 8);
  arith::BlockRng rng(13);
  arith::make_source(arith::InputDistribution::kGaussianTwos, width, {0.0, 1048576.0})
      ->fill_batch(rng, batch);
  return batch;
}

void BM_ChainProfileRecord(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const arith::BitSlicedBatch batch = chain_profile_batch(width);
  std::vector<std::pair<ApInt, ApInt>> pairs;
  for (int lane = 0; lane < batch.lanes(); ++lane) pairs.push_back(batch.lane(lane));
  arith::CarryChainProfiler profiler(width);
  for (auto _ : state) {
    for (const auto& [a, b] : pairs) profiler.record(a, b);
    benchmark::DoNotOptimize(profiler.counts().data());
  }
  state.SetItemsProcessed(state.iterations() * batch.lanes());
}
BENCHMARK(BM_ChainProfileRecord)->Arg(32);

void BM_ChainProfileBatch(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const arith::BitSlicedBatch batch = chain_profile_batch(width);
  arith::CarryChainProfiler profiler(width);
  for (auto _ : state) {
    profiler.record_batch(batch, static_cast<std::uint64_t>(batch.lanes()));
    benchmark::DoNotOptimize(profiler.counts().data());
  }
  state.SetItemsProcessed(state.iterations() * batch.lanes());
}
BENCHMARK(BM_ChainProfileBatch)->Arg(32);

// ---- RNG subsystem ---------------------------------------------------------
// The block-generating MT19937-64 vs the std engine it is sequence-identical
// to: per-call draws, bulk generate_block, and the uniform operand fill it
// feeds.  Args where present end in the backend, as in BackendScope.

/// The original uniform fill: one std::mt19937_64 draw per limb per sample
/// into per-limb 64x64 transpose blocks — the sample-major stream
/// UniformUnsignedSource drew before the block RNG and the plane-major
/// streams (uniform-plane-v1 groups, then uniform-plane-v2 superblocks).
/// It draws different samples than today's fill, so it is a cost baseline
/// only: BM_RngFillBatchPerCallReference times it on the same shapes as
/// BM_RngFillBatch.
void fill_batch_percall_reference(std::mt19937_64& rng, arith::BitSlicedBatch& batch,
                                  std::vector<std::uint64_t>& rows) {
  const int width = batch.width();
  const int lane_words = batch.lane_words();
  const int limbs = (width + 63) / 64;
  const std::uint64_t top_mask =
      width % 64 == 0 ? ~std::uint64_t{0} : ((std::uint64_t{1} << (width % 64)) - 1);
  rows.resize(static_cast<std::size_t>(2 * limbs) * 64);
  for (int w = 0; w < lane_words; ++w) {
    for (int j = 0; j < 64; ++j) {
      for (int op = 0; op < 2; ++op) {
        for (int limb = 0; limb < limbs; ++limb) {
          std::uint64_t word = rng();
          if (limb == limbs - 1) word &= top_mask;
          rows[static_cast<std::size_t>((op * limbs + limb) * 64 + j)] = word;
        }
      }
    }
    for (int op = 0; op < 2; ++op) {
      std::uint64_t* planes = op == 0 ? batch.a() : batch.b();
      for (int limb = 0; limb < limbs; ++limb) {
        std::uint64_t* block = rows.data() + static_cast<std::size_t>(op * limbs + limb) * 64;
        planeops::transpose_64x64(block);
        arith::block_to_planes(block, limb, width, planes, lane_words, w);
      }
    }
  }
}

void BM_RngStdMt19937Draws(benchmark::State& state) {
  std::mt19937_64 rng(1);
  std::uint64_t sum = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) sum += rng();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_RngStdMt19937Draws);

void BM_RngBlockRngDraws(benchmark::State& state) {
  const BackendScope scope(state, state.range(0));
  arith::BlockRng rng(1);
  std::uint64_t sum = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) sum += rng();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
  state.SetLabel(to_string(planeops::active_backend()));
}
BENCHMARK(BM_RngBlockRngDraws)->DenseRange(0, 2);

void BM_RngGenerateBlock(benchmark::State& state) {
  const std::size_t words = static_cast<std::size_t>(state.range(0));
  const BackendScope scope(state, state.range(1));
  arith::BlockRng rng(1);
  std::vector<std::uint64_t> buf(words);
  for (auto _ : state) {
    rng.generate_block(buf.data(), words);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(words));
  state.SetLabel(to_string(planeops::active_backend()));
}
BENCHMARK(BM_RngGenerateBlock)
    ->Args({312, 0})->Args({312, 1})->Args({312, 2})
    ->Args({4096, 0})->Args({4096, 1})->Args({4096, 2});

// The uniform operand fill: one batch of 64 * lane_words operand pairs into
// bit-planes, no transpose.  At 8 lane words a batch is one 512-sample
// superblock that two generate_block calls write straight into the planes
// (at width 512 that is two BM_RngGenerateBlock/4096 calls, its floor);
// other lane widths copy contiguous row runs out of a buffered superblock.  Args: (width,
// lane_words, backend; the backend moves the RNG twist/temper).  Compare with
// BM_RngFillBatchPerCallReference, which re-implements the original
// per-call, transposing fill on the same shapes — the ratio is the
// operand-generation speedup of the block RNG and the plane-major stream
// together.
void BM_RngFillBatch(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const int lane_words = static_cast<int>(state.range(1));
  const BackendScope scope(state, state.range(2));
  arith::UniformUnsignedSource source(width);
  arith::BitSlicedBatch batch(width, lane_words);
  arith::BlockRng rng(5);
  for (auto _ : state) {
    source.fill_batch(rng, batch);
    benchmark::DoNotOptimize(batch.a());
  }
  state.SetItemsProcessed(state.iterations() * 64 * lane_words);
  state.SetLabel(to_string(planeops::active_backend()));
}
BENCHMARK(BM_RngFillBatch)
    ->Args({64, 4, 0})->Args({64, 4, 1})->Args({64, 4, 2})
    ->Args({512, 4, 0})->Args({512, 4, 1})->Args({512, 4, 2})
    ->Args({512, 8, 0})->Args({512, 8, 1})->Args({512, 8, 2});

// Bulk ziggurat variates from the block sampler — the per-variate floor of
// every Gaussian workload.  Arg: the backend (it moves the generate_block
// refills and the fast-path walk under the ziggurat).
void BM_RngGaussianBlock(benchmark::State& state) {
  const BackendScope scope(state, state.range(0));
  arith::GaussianBlockSampler sampler;
  arith::BlockRng rng(19);
  std::vector<double> variates(4096);
  for (auto _ : state) {
    sampler.fill(rng, variates.data(), variates.size());
    benchmark::DoNotOptimize(variates.data());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
  state.SetLabel(to_string(planeops::active_backend()));
}
BENCHMARK(BM_RngGaussianBlock)->DenseRange(0, 2);

// One Gaussian fill_batch (two's complement, the Ch. 7 operand source):
// one ziggurat fill for the batch and the planeops::gaussian_to_planes
// encode and transpose.  Lane words 4 and 16 run the avx512 row's
// four-word and eight-word chunks alone; width 128 adds the sign planes.
// Args: (width, lane words, backend).
void BM_GaussianFillBatch(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const int lane_words = static_cast<int>(state.range(1));
  const BackendScope scope(state, state.range(2));
  arith::GaussianSource source(width, arith::GaussianParams{}, true);
  arith::BitSlicedBatch batch(width, lane_words);
  arith::BlockRng rng(23);
  for (auto _ : state) {
    source.fill_batch(rng, batch);
    benchmark::DoNotOptimize(batch.a());
  }
  state.SetItemsProcessed(state.iterations() * 64 * lane_words);
  state.SetLabel(to_string(planeops::active_backend()));
}
BENCHMARK(BM_GaussianFillBatch)
    ->Args({64, 8, 0})->Args({64, 8, 1})->Args({64, 8, 2})
    ->Args({64, 4, 0})->Args({64, 4, 1})->Args({64, 4, 2})
    ->Args({64, 16, 0})->Args({64, 16, 1})->Args({64, 16, 2})
    ->Args({128, 8, 0})->Args({128, 8, 1})->Args({128, 8, 2});

// One engine shard's generator: make_stream_rng's 624 seed words, the
// state they fill and the first block's twist (one draw).
void BM_RngMakeStream(benchmark::State& state) {
  std::uint64_t stream = 0;
  for (auto _ : state) {
    arith::BlockRng rng = arith::make_stream_rng(1, ++stream);
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_RngMakeStream);

void BM_RngGaussianPerCallReference(benchmark::State& state) {
  arith::BlockRng rng(19);
  std::normal_distribution<double> dist(0.0, 4294967296.0);
  double sum = 0.0;
  for (auto _ : state) {
    for (int i = 0; i < 4096; ++i) sum += dist(rng);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_RngGaussianPerCallReference);

void BM_RngFillBatchPerCallReference(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const int lane_words = static_cast<int>(state.range(1));
  arith::BitSlicedBatch batch(width, lane_words);
  std::mt19937_64 rng(5);
  std::vector<std::uint64_t> rows;
  for (auto _ : state) {
    fill_batch_percall_reference(rng, batch, rows);
    benchmark::DoNotOptimize(batch.a());
  }
  state.SetItemsProcessed(state.iterations() * 64 * lane_words);
}
BENCHMARK(BM_RngFillBatchPerCallReference)->Args({64, 4})->Args({512, 4})->Args({512, 8});

void BM_NetlistSimulate64Vectors(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const auto nl =
      netlist::optimize(adders::build_adder_netlist(adders::AdderKind::kKoggeStone, width));
  netlist::Simulator sim(nl);
  vlcsa::arith::BlockRng rng(4);
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) sim.set_input(i, rng());
  for (auto _ : state) {
    sim.run();
    benchmark::DoNotOptimize(sim.value(nl.outputs().back().signal));
  }
  state.SetItemsProcessed(state.iterations() * 64);  // vectors per pass
}
BENCHMARK(BM_NetlistSimulate64Vectors)->Arg(64)->Arg(256);

void BM_OptimizeKoggeStone(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const auto nl = adders::build_adder_netlist(adders::AdderKind::kKoggeStone, width);
  for (auto _ : state) {
    benchmark::DoNotOptimize(netlist::optimize(nl));
  }
}
BENCHMARK(BM_OptimizeKoggeStone)->Arg(64)->Arg(256);

void BM_StaticTiming(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const auto nl =
      netlist::optimize(adders::build_adder_netlist(adders::AdderKind::kKoggeStone, width));
  for (auto _ : state) {
    benchmark::DoNotOptimize(netlist::analyze_timing(nl));
  }
}
BENCHMARK(BM_StaticTiming)->Arg(64)->Arg(256);

// The acceptance benchmark for the batch pipeline: the full error-rate
// sampling loop (operand generation + model + counters), one body for all
// four distribution x eval-path variants.  Batched args: (width, lane_words,
// backend) — (W=1, scalar backend) is the single-word scalar-kernel pipeline,
// (4, avx2) and (8, avx512) are those backends' default lane widths
// (arith::default_lane_words()), and the items/sec ratio between them is
// the SIMD layer's end-to-end delta.
// Scalar-path args: (width) only.  `window` 0 = sized for 0.01%.
void error_rate_samples(benchmark::State& state, arith::InputDistribution dist, int window,
                        std::uint64_t seed, harness::EvalPath path) {
  const int width = static_cast<int>(state.range(0));
  const bool batched = path == harness::EvalPath::kBatched;
  std::optional<BackendScope> scope;
  if (batched) scope.emplace(state, state.range(2));
  auto source = arith::make_source(dist, width);
  const int k = window > 0 ? window : spec::min_window_for_error_rate(width, 1e-4);
  constexpr std::uint64_t kSamples = 1 << 13;
  harness::RunOptions options;
  options.samples = kSamples;
  options.threads = 1;
  options.lane_words = batched ? static_cast<int>(state.range(1)) : 0;
  for (auto _ : state) {
    options.seed = seed++;
    benchmark::DoNotOptimize(
        harness::run_model(harness::ModelKind::kVlcsa2, width, k, *source, options, path));
  }
  state.SetItemsProcessed(state.iterations() * kSamples);
  if (batched) state.SetLabel(to_string(planeops::active_backend()));
}
BENCHMARK_CAPTURE(error_rate_samples, Batched, arith::InputDistribution::kUniformUnsigned, 0,
                  5, harness::EvalPath::kBatched)
    ->Name("BM_ErrorRateSamplesBatched")
    ->Args({64, 1, 0})->Args({64, 4, 1})->Args({64, 8, 2})
    ->Args({512, 1, 0})->Args({512, 4, 1})->Args({512, 8, 2});
BENCHMARK_CAPTURE(error_rate_samples, Scalar, arith::InputDistribution::kUniformUnsigned, 0,
                  5, harness::EvalPath::kScalar)
    ->Name("BM_ErrorRateSamplesScalar")->Arg(64)->Arg(512);
// Same comparison on the Ch. 7 workload (Gaussian two's-complement
// operands), where sample generation is the larger share of the cost.
BENCHMARK_CAPTURE(error_rate_samples, GaussBatched, arith::InputDistribution::kGaussianTwos,
                  13, 6, harness::EvalPath::kBatched)
    ->Name("BM_ErrorRateSamplesGaussBatched")
    ->Args({64, 1, 0})->Args({64, 4, 1})->Args({64, 8, 2})
    ->Args({512, 1, 0})->Args({512, 4, 1})->Args({512, 8, 2});
BENCHMARK_CAPTURE(error_rate_samples, GaussScalar, arith::InputDistribution::kGaussianTwos,
                  13, 6, harness::EvalPath::kScalar)
    ->Name("BM_ErrorRateSamplesGaussScalar")->Arg(64)->Arg(512);

void BM_MonteCarloVlcsa(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, width);
  const int k = spec::min_window_for_error_rate(width, 1e-4);
  std::uint64_t seed = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness::run_model(harness::ModelKind::kVlcsa2, width, k, *source,
                                                {.samples = 1000, .seed = seed++, .threads = 1}));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MonteCarloVlcsa)->Arg(64)->Arg(512);

// The sharded engine end to end: 64k samples per iteration, thread count as
// the sweep axis — wall-clock should drop near-linearly while the merged
// result stays bit-identical (tests/harness/engine_test.cpp enforces that).
void BM_MonteCarloVlcsaParallel(benchmark::State& state) {
  const int width = 64;
  auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, width);
  const int k = spec::min_window_for_error_rate(width, 1e-4);
  constexpr std::uint64_t kSamples = 1 << 16;
  const harness::RunOptions options{
      .samples = kSamples, .seed = 7, .threads = static_cast<int>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        harness::run_model(harness::ModelKind::kVlcsa2, width, k, *source, options));
  }
  state.SetItemsProcessed(state.iterations() * kSamples);
}
BENCHMARK(BM_MonteCarloVlcsaParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->MeasureProcessCPUTime()->UseRealTime();

// The service daemon's cached-hit path (parse -> memory-tier hit -> render),
// the latency every repeated table/figure reproduction sees.  Arg 0 runs with
// observability off — the shape the determinism/overhead contract pins: a
// request line without "trace" in it must pay exactly one substring scan and
// one disabled-branch per stage, nothing else.  Arg 1 runs the same requests
// with --trace-log enabled (span collection + one JSONL line per request),
// which prices what an operator buys when they turn tracing on.  Arg 2 adds
// --access-log=FILE --access-log-max-bytes=64MiB: the production
// configuration perfbench's svc-hit daemon runs.
void BM_ServiceCachedHit(benchmark::State& state) {
  const int logs = static_cast<int>(state.range(0));
  service::ServiceConfig config;
  config.threads = 1;
  // Per-process paths, so concurrent bench runs never share a log file.
  const std::string prefix = (std::filesystem::temp_directory_path() /
                              ("vlcsa_bench_" + std::to_string(::getpid()) + "_"))
                                 .string();
  if (logs >= 1) config.trace_log = prefix + "trace.jsonl";
  if (logs >= 2) {
    config.access_log = prefix + "access.jsonl";
    config.access_log_max_bytes = std::uint64_t{64} << 20;
  }
  const auto remove_logs = [&config] {
    std::error_code ec;  // best-effort cleanup
    for (const std::string& path : {config.trace_log, config.access_log}) {
      if (path.empty()) continue;
      std::filesystem::remove(path, ec);
      std::filesystem::remove(path + ".1", ec);
    }
  };
  {
    service::ExperimentService service(config);
    const std::string line =
        "{\"request\": \"run\", \"experiment\": \"table7.1/n64\", \"samples\": 4096, "
        "\"seed\": 3}";
    if (!service.handle_line(line).ok) {  // warm the memory tier
      state.SkipWithError("warm-up run failed");
    } else {
      for (auto _ : state) {
        benchmark::DoNotOptimize(service.handle_line(line));
      }
      state.SetItemsProcessed(state.iterations());
      state.SetLabel(logs == 0 ? "untraced" : logs == 1 ? "traced" : "traced+access");
    }
  }  // the service closes its logs before they are removed
  remove_logs();
}
BENCHMARK(BM_ServiceCachedHit)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

BENCHMARK_MAIN();
