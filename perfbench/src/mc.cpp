// Monte Carlo engine workloads (mc-uniform-n512, mc-gauss-n64) and the
// engine-layer replica the traced run times.

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "arith/distributions.hpp"
#include "harness/engine.hpp"
#include "harness/experiments.hpp"
#include "harness/montecarlo.hpp"
#include "speculative/error_model.hpp"
#include "speculative/vlcsa.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace hn = vlcsa::harness;

namespace {

/// Calls whose counters feed the simulated-statistics fingerprint: a fixed
/// prefix, so the hash does not depend on how many calls the host managed.
constexpr std::uint64_t kHashedCalls = 32;

/// Set-ups per run; setup_s is their median.
constexpr std::uint64_t kSetupReps = 25;

const hn::ErrorRateExperiment& find_experiment(const std::string& name) {
  const hn::ErrorRateExperiment* experiment = hn::find_error_rate_experiment(name);
  if (experiment == nullptr) throw std::runtime_error("unknown experiment " + name);
  return *experiment;
}

std::uint64_t call_samples(const hn::ErrorRateExperiment& experiment, bool tiny) {
  return tiny ? 5000 : experiment.default_samples;
}

hn::RunOptions single_thread(std::uint64_t samples, std::uint64_t seed) {
  hn::RunOptions options;
  options.samples = samples;
  options.seed = seed;
  options.threads = 1;
  return options;
}

/// The invariants every VLCSA run must hold; each violation is a failed op.
bool check_counters(const hn::ErrorRateResult& r, std::uint64_t samples, Outcome& out,
                    const std::string& what) {
  std::string problem;
  if (r.samples != samples) problem = "sample count";
  if (r.false_negatives != 0) problem = "false_negatives != 0";
  if (r.emitted_wrong != 0) problem = "emitted_wrong != 0";
  if (r.nominal_errors < r.actual_errors) problem = "nominal < actual";
  if (problem.empty()) return true;
  out.fail(what + ": " + problem);
  return false;
}

void hash_counters(Fnv& fnv, const hn::ErrorRateResult& r) {
  for (const std::uint64_t value : {r.samples, r.actual_errors, r.nominal_errors,
                                    r.false_negatives, r.either_wrong, r.emitted_wrong,
                                    r.total_cycles}) {
    fnv.u64(value);
  }
}

/// Wilson score interval at z standard deviations.
bool wilson_contains(std::uint64_t successes, std::uint64_t trials, double p, double z) {
  const double n = static_cast<double>(trials);
  const double x = static_cast<double>(successes);
  const double z2 = z * z;
  const double center = (x + z2 / 2) / (n + z2);
  const double half = z / (n + z2) * std::sqrt(x * (n - x) / n + z2 / 4);
  return p >= center - half && p <= center + half;
}

}  // namespace

void run_mc(const Args& args, Outcome& out) {
  const std::string name = engine_experiment(args.workload);

  // Set-up, repeated: registry lookup (the first pass also builds the
  // registry), source construction and one warm-up call of the measured size.
  std::vector<double> setups;
  std::vector<double> setup_calibration;
  const hn::ErrorRateExperiment* experiment = nullptr;
  std::uint64_t samples = 0;
  for (std::uint64_t rep = 0; rep < kSetupReps; ++rep) {
    const auto start = Clock::now();
    experiment = &find_experiment(name);
    samples = call_samples(*experiment, args.tiny);
    const auto source =
        vlcsa::arith::make_source(experiment->dist, experiment->width, experiment->params);
    const hn::ErrorRateResult warm =
        hn::run_experiment(*experiment, single_thread(samples, derive_seed(args.seed, 9, rep)));
    setups.push_back(seconds_since(start));
    setup_calibration.push_back(calibration_s());
    ++out.attempted;
    check_counters(warm, samples, out, "warm-up call");
  }

  std::vector<double> calls;
  std::vector<double> cpu;  // thread CPU seconds per call, beside the wall time
  std::vector<double> calibration;  // host-speed probes (scale_each)
  hn::ErrorRateResult total;
  Fnv fnv;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i == 0 || seconds_since(start) < args.seconds; ++i) {
    const auto call_start = Clock::now();
    const double cpu_start = thread_cpu_seconds();
    const hn::ErrorRateResult r =
        hn::run_experiment(*experiment, single_thread(samples, derive_seed(args.seed, 1, i)));
    cpu.push_back(thread_cpu_seconds() - cpu_start);
    calls.push_back(seconds_since(call_start));
    calibration.push_back(calibration_s());  // between calls, never inside one
    ++out.attempted;
    check_counters(r, samples, out, "call " + std::to_string(i));
    total += r;
    if (i < kHashedCalls) hash_counters(fnv, r);
  }
  const double wall = seconds_since(start);

  // Scalar oracle: a short multi-shard run with a tail, batched vs the
  // per-sample path on the first call's seed.
  {
    hn::RunOptions options = single_thread(4096 + 333, derive_seed(args.seed, 1, 0));
    options.shard_size = 2048;
    const hn::ErrorRateResult batched = hn::run_experiment(*experiment, options);
    hn::ErrorRateResult scalar =
        hn::run_experiment(*experiment, options, hn::EvalPath::kScalar);
    if (args.fault == "corrupt-expected") ++scalar.actual_errors;
    ++out.attempted;
    if (!(batched == scalar)) out.fail("batched counters differ from the scalar oracle");
  }
  // Exact-model gate for uniform inputs.  scsa_exact_error_rate is the DP
  // probability that some window pair is generate-then-propagate, which is
  // exactly when VLCSA 1's detection fires, so the measured stall (nominal)
  // rate must sit inside a 5-sigma Wilson interval around it; the actual
  // rate is bounded by it through the nominal >= actual check above.
  if (experiment->dist == vlcsa::arith::InputDistribution::kUniformUnsigned &&
      experiment->model == hn::ModelKind::kVlcsa1) {
    const double exact = vlcsa::spec::scsa_exact_error_rate(experiment->width, experiment->window);
    ++out.attempted;
    if (!wilson_contains(total.nominal_errors, total.samples, exact, 5.0)) {
      out.fail("nominal_rate " + std::to_string(total.nominal_rate()) +
               " outside the 5-sigma Wilson bound of exact " + std::to_string(exact));
    }
    out.fingerprint["exact_rate"] = std::to_string(exact);
  }
  out.fingerprint["actual_rate"] = std::to_string(total.actual_rate());
  out.fingerprint["nominal_rate"] = std::to_string(total.nominal_rate());

  const std::vector<double> scaled = scale_each(calls, calibration);
  double busy = 0.0;
  for (const double call : scaled) busy += call;
  out.add("setup_s", median(scale_each(setups, setup_calibration)), "s");
  out.add("op_p50_us", median(scaled) * 1e6, "us");
  out.add("ops_per_s", static_cast<double>(scaled.size()) / busy, "1/s");
  out.add("peak_rss_mb", peak_rss_mb(0), "MB");
  out.fingerprint["raw_op_p50_us"] = std::to_string(median(calls) * 1e6);
  out.fingerprint["raw_ops_per_s"] = std::to_string(static_cast<double>(calls.size()) / wall);

  out.fingerprint["experiment"] = name;
  out.fingerprint["samples_per_call"] = std::to_string(samples);
  out.fingerprint["calls"] = std::to_string(calls.size());
  out.fingerprint["ns_per_sample"] =
      std::to_string(median(calls) * 1e9 / static_cast<double>(samples));
  out.fingerprint["cpu_ns_per_sample"] =
      std::to_string(median(cpu) * 1e9 / static_cast<double>(samples));
  out.fingerprint["calibration_us"] = std::to_string(median(calibration) * 1e6);
  out.fingerprint["sim_hash"] = fnv.hex();
  out.fingerprint["sim_hash_calls"] =
      std::to_string(std::min<std::uint64_t>(kHashedCalls, calls.size()));
  out.fingerprint["stream_version"] = stream_version_of(name);
}

void replica_run(const std::string& name, std::uint64_t samples, std::uint64_t seed,
                 SpanLog& spans, ReplicaTimes& times, Outcome& out) {
  const hn::ErrorRateExperiment& experiment = find_experiment(name);
  if (experiment.model == hn::ModelKind::kVlsa) {
    throw std::runtime_error("replica covers VLCSA experiments only: " + name);
  }
  const vlcsa::spec::VlcsaConfig config{experiment.width, experiment.window,
                                        experiment.model == hn::ModelKind::kVlcsa1
                                            ? vlcsa::spec::ScsaVariant::kScsa1
                                            : vlcsa::spec::ScsaVariant::kScsa2};
  const vlcsa::spec::VlcsaModel model(config);
  const auto source = vlcsa::arith::make_source(experiment.dist, experiment.width, experiment.params);
  const int lane_words = vlcsa::arith::default_lane_words();
  const std::uint64_t shard_size = hn::kDefaultShardSize;

  hn::ErrorRateResult merged;
  const SpanLog::Handle root = spans.open("replica");
  for (std::uint64_t shard = 0; shard * shard_size < samples; ++shard) {
    const std::uint64_t count = std::min(shard_size, samples - shard * shard_size);
    const SpanLog::Handle setup = spans.open("shard_setup", root.index);
    auto rng = hn::make_shard_rng(seed, shard);
    const auto shard_source = source->clone();
    vlcsa::arith::BitSlicedBatch batch(config.width, lane_words);
    vlcsa::spec::VlcsaBatchStep step;
    times.shard_setup_s += spans.close(setup);
    ++times.shards;

    hn::ErrorRateResult acc;
    const std::uint64_t lanes = static_cast<std::uint64_t>(batch.lanes());
    std::uint64_t done = 0;
    for (; done + lanes <= count; done += lanes) {
      const auto t0 = Clock::now();
      shard_source->fill_batch(rng, batch);
      const auto t1 = Clock::now();
      model.step_batch(batch, step);
      const auto t2 = Clock::now();
      hn::accumulate_vlcsa_batch(step, config.variant, acc);
      const auto t3 = Clock::now();
      spans.add("fill_batch", root.index, t0, t1);
      spans.add("step_batch", root.index, t1, t2);
      spans.add("fold", root.index, t2, t3);
      times.fill_s += std::chrono::duration<double>(t1 - t0).count();
      times.step_s += std::chrono::duration<double>(t2 - t1).count();
      times.fold_s += std::chrono::duration<double>(t3 - t2).count();
    }
    times.batched_samples += done;
    if (done < count) {
      const SpanLog::Handle tail = spans.open("scalar_tail", root.index);
      for (; done < count; ++done) {
        const auto [a, b] = shard_source->next(rng);
        hn::accumulate_vlcsa(model.step(a, b), config.variant, acc);
      }
      times.tail_s += spans.close(tail);
    }
    merged += acc;
  }
  times.wall_s += spans.close(root);

  const auto reference_start = Clock::now();
  const hn::ErrorRateResult reference =
      hn::run_experiment(experiment, single_thread(samples, seed));
  times.reference_s += seconds_since(reference_start);
  ++out.attempted;
  if (!(merged == reference)) {
    out.fail("replica counters differ from run_experiment for " + name + " seed " +
             std::to_string(seed));
    return;
  }
  check_counters(merged, samples, out, "replica " + name);
}

void trace_mc(const EngineSummary& engine, Outcome& out) {
  out.add("trace_overhead", engine.replica_ns_per_sample / engine.reference_ns_per_sample,
          "ratio");
  out.add("residual_share", 1.0 - engine.span_share, "ratio");
}

}  // namespace perfbench
