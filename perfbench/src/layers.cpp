// The traced run's per-layer metrics: each is timed from the benchmark's own
// files around calls into one layer's public functions, on the
// configuration of the workload being traced (its engine experiment, its
// request lines, its sweep grid).  README.md has the table of which
// end-to-end metric each should move.

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "arith/bitslice.hpp"
#include "arith/carry_chain.hpp"
#include "arith/distributions.hpp"
#include "arith/planeops.hpp"
#include "arith/rng.hpp"
#include "harness/engine.hpp"
#include "harness/experiments.hpp"
#include "harness/json.hpp"
#include "harness/sweep.hpp"
#include "service/cache.hpp"
#include "service/service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace hn = vlcsa::harness;
namespace arith = vlcsa::arith;
namespace svc = vlcsa::service;

// Keeps the results of timed-but-otherwise-unused work observable.
volatile std::uint64_t g_sink = 0;

/// Runs `body` (one timed chunk of work, returning its unit count) until
/// `budget_s` has passed and at least `min_chunks` ran; returns the median
/// seconds per unit over the chunks.
template <typename Body>
double per_unit(double budget_s, int min_chunks, Body&& body) {
  std::vector<double> chunks;
  const auto start = Clock::now();
  while (static_cast<int>(chunks.size()) < min_chunks || seconds_since(start) < budget_s) {
    const auto chunk_start = Clock::now();
    const double units = body();
    chunks.push_back(seconds_since(chunk_start) / units);
  }
  return median(chunks);
}

/// The request keys whose lines the service layers are timed on.
std::vector<RunKey> layer_keys(const Args& args) {
  if (args.workload == "svc-hit") return svc_key_pool(args.seed, args.tiny);
  if (is_sweep(args.workload)) return sweep_keys(sweep_spec(args.seed, 0, args.tiny));
  std::vector<RunKey> keys;
  for (std::uint64_t i = 0; i < 8; ++i) {
    keys.push_back({engine_experiment(args.workload), args.tiny ? 256u : 4096u,
                    derive_seed(args.seed, 2, i)});
  }
  return keys;
}

/// The cache key a rendered record was stored under.
svc::CacheKey key_of(const std::string& record) {
  const hn::JsonParse parsed = hn::parse_json(record);
  if (!parsed.ok()) throw std::runtime_error("unparseable record " + record);
  svc::CacheKey key;
  key.experiment = parsed.value.find("experiment")->as_string();
  (void)parsed.value.find("samples")->to_u64(key.samples);
  (void)parsed.value.find("seed")->to_u64(key.seed);
  key.eval_path = parsed.value.find("eval_path")->as_string();
  if (const hn::JsonValue* version = parsed.value.find("stream_version")) {
    key.stream_version = version->as_string();
  }
  return key;
}

/// 64-sample groups transposed per sample by the workload source's
/// fill_batch: one 64x64 block per operand limb per group for the uniform
/// and the generic (next() + transpose_to_planes) fills, the limb-0 block
/// only for the Gaussian fills.  Derived from the fill structure.
double transpose_blocks_per_sample(const hn::ErrorRateExperiment& experiment) {
  const double limbs = std::ceil(experiment.width / 64.0);
  const bool gaussian = experiment.dist == arith::InputDistribution::kGaussianUnsigned ||
                        experiment.dist == arith::InputDistribution::kGaussianTwos;
  return 2.0 * (gaussian ? 1.0 : limbs) / arith::kBatchLanes;
}

EngineSummary engine_layers(const Args& args, SpanLog& spans, Outcome& out) {
  const std::string name = engine_experiment(args.workload);
  const hn::ErrorRateExperiment& experiment = *hn::find_error_rate_experiment(name);
  const std::uint64_t samples = args.tiny ? 5000 : experiment.default_samples;

  std::vector<double> replica_ns, reference_ns, fill_ns, step_ns, fold_ns, setup_us, timed_ns,
      share;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < 3 || seconds_since(start) < args.seconds * 0.3; ++i) {
    ReplicaTimes t;
    replica_run(name, samples, derive_seed(args.seed, 1, i), spans, t, out);
    const double n = static_cast<double>(samples);
    const double batched = static_cast<double>(std::max<std::uint64_t>(t.batched_samples, 1));
    const double timed = t.fill_s + t.step_s + t.fold_s + t.tail_s + t.shard_setup_s;
    replica_ns.push_back(t.wall_s / n * 1e9);
    reference_ns.push_back(t.reference_s / n * 1e9);
    fill_ns.push_back(t.fill_s / batched * 1e9);
    step_ns.push_back(t.step_s / batched * 1e9);
    fold_ns.push_back(t.fold_s / batched * 1e9);
    setup_us.push_back(t.shard_setup_s / static_cast<double>(t.shards) * 1e6);
    timed_ns.push_back(timed / n * 1e9);
    share.push_back(timed / t.wall_s);
  }
  out.add("arith.fill.ns_per_sample", median(fill_ns), "ns");
  out.add("speculative.eval.ns_per_sample", median(step_ns), "ns");
  out.add("harness.fold.ns_per_sample", median(fold_ns), "ns");
  out.add("harness.engine.shard_setup_us", median(setup_us), "us");
  out.add("harness.engine.overhead_ns_per_sample", median(reference_ns) - median(timed_ns), "ns");

  // Exact counts from the engine's own RunProfile on the same call shape.
  hn::RunProfileCollector collector;
  hn::RunOptions options;
  options.samples = samples;
  options.seed = derive_seed(args.seed, 1, 0);
  options.threads = 1;
  options.profile = &collector;
  (void)hn::run_experiment(experiment, options);
  const hn::RunProfile profile = collector.snapshot();
  out.add("arith.rng.words_per_sample",
          static_cast<double>(profile.rng_words) / static_cast<double>(profile.samples), "count");
  out.add("harness.engine.scalar_tail_share",
          static_cast<double>(profile.scalar_samples) / static_cast<double>(profile.samples),
          "ratio");
  out.add("arith.transpose.blocks_per_sample", transpose_blocks_per_sample(experiment), "count");

  return {median(replica_ns), median(reference_ns), median(share)};
}

void arith_layers(const Args& args, double budget, Outcome& out) {
  {
    auto rng = arith::make_stream_rng(args.seed, 7);
    std::vector<std::uint64_t> words(4096);
    out.add("arith.rng.ns_per_word", 1e9 * per_unit(budget, 5, [&] {
              for (int rep = 0; rep < 16; ++rep) rng.generate_block(words.data(), words.size());
              g_sink = g_sink + words[0];
              return 16.0 * static_cast<double>(words.size());
            }),
            "ns");
  }
  {
    auto rng = arith::make_stream_rng(args.seed, 8);
    std::uint64_t block[64];
    rng.generate_block(block, 64);
    out.add("arith.transpose.ns_per_block", 1e9 * per_unit(budget, 5, [&] {
              for (int rep = 0; rep < 1000; ++rep) arith::planeops::transpose_64x64(block);
              g_sink = g_sink + block[7];
              return 1000.0;
            }),
            "ns");
  }
  // Chain-profile cells' scalar path: OperandSource::next and
  // CarryChainProfiler::record, averaged over the distribution profiles.
  double next_ns = 0.0;
  double record_ns = 0.0;
  int profiles = 0;
  for (const hn::ChainProfileExperiment& experiment : hn::chain_profile_experiments()) {
    if (experiment.workload != hn::ChainProfileExperiment::Workload::kDistribution) continue;
    const auto source = arith::make_source(experiment.dist, experiment.width, experiment.params);
    auto rng = arith::make_stream_rng(args.seed, 9);
    std::vector<std::pair<arith::ApInt, arith::ApInt>> pairs(512);
    next_ns += 1e9 * per_unit(budget / 4, 3, [&] {
      for (auto& pair : pairs) pair = source->next(rng);
      return static_cast<double>(pairs.size());
    });
    arith::CarryChainProfiler profiler(experiment.width);
    record_ns += 1e9 * per_unit(budget / 4, 3, [&] {
      for (const auto& [a, b] : pairs) profiler.record(a, b);
      return static_cast<double>(pairs.size());
    });
    g_sink = g_sink + profiler.total();
    ++profiles;
  }
  out.add("arith.next_ns", next_ns / profiles, "ns");
  out.add("arith.chain.record_ns", record_ns / profiles, "ns");
}

void service_layers(const Args& args, double budget, Outcome& out) {
  const std::vector<RunKey> keys = layer_keys(args);
  std::vector<std::string> lines;
  for (const RunKey& key : keys) lines.push_back(run_line(key));
  make_dirs("layers");

  out.add("harness.json.parse_us", 1e6 * per_unit(budget, 5, [&] {
            for (const std::string& line : lines) g_sink = g_sink + hn::parse_json(line).ok();
            return static_cast<double>(lines.size());
          }),
          "us");

  // handle_line in-process on a warm memory tier, with and without logs.
  const auto handle_us = [&](bool logs) {
    svc::ServiceConfig config;
    config.cache_dir = logs ? "layers/cache-logs" : "layers/cache-nolog";
    config.threads = 1;
    if (logs) {
      config.trace_log = "layers/trace.jsonl";
      config.access_log = "layers/access.jsonl";
    }
    svc::ExperimentService service(config);
    for (const std::string& line : lines) {
      ++out.attempted;
      if (!service.handle_line(line).ok) out.fail("handle_line warm-up: " + line);
    }
    std::vector<double> calls;
    const auto start = Clock::now();
    for (std::size_t i = 0; calls.size() < 50 || seconds_since(start) < budget; ++i) {
      const std::string& line = lines[i % lines.size()];
      const auto t0 = Clock::now();
      const svc::ExperimentService::Reply reply = service.handle_line(line);
      calls.push_back(seconds_since(t0));
      if (!reply.ok) out.fail("handle_line: " + reply.line);
    }
    return median(calls) * 1e6;
  };
  const double with_logs = handle_us(true);
  const double without_logs = handle_us(false);
  out.add("service.handle_line_us", with_logs, "us");
  out.add("service.handle_line_nolog_us", without_logs, "us");
  out.add("service.log_us", with_logs - without_logs, "us");

  // Cache tiers directly, on the records these lines produce.
  const std::vector<std::string> records = reference_records(keys);
  std::vector<svc::CacheKey> cache_keys;
  for (const std::string& record : records) cache_keys.push_back(key_of(record));
  {
    svc::ResultCache memory("", 64);
    for (std::size_t i = 0; i < records.size(); ++i) memory.put(cache_keys[i], records[i]);
    out.add("service.cache.get_mem_us", 1e6 * per_unit(budget, 5, [&] {
              for (const svc::CacheKey& key : cache_keys) {
                g_sink = g_sink + memory.get(key).record.size();
              }
              return static_cast<double>(cache_keys.size());
            }),
            "us");
  }
  {
    svc::ResultCache disk("layers/cache-put", 64);
    out.add("service.cache.put_us", 1e6 * per_unit(budget, 3, [&] {
              for (std::size_t i = 0; i < records.size(); ++i) disk.put(cache_keys[i], records[i]);
              return static_cast<double>(records.size());
            }),
            "us");
  }
  {
    std::vector<double> gets;
    const auto start = Clock::now();
    while (gets.size() < 3 * cache_keys.size() || seconds_since(start) < budget) {
      svc::ResultCache fresh("layers/cache-put", 64);  // empty memory tier, filled dir
      for (const svc::CacheKey& key : cache_keys) {
        const auto t0 = Clock::now();
        const svc::ResultCache::Lookup lookup = fresh.get(key);
        gets.push_back(seconds_since(t0));
        if (lookup.tier != svc::ResultCache::Tier::kDisk) out.fail("expected a disk-tier hit");
      }
    }
    out.add("service.cache.get_disk_us", median(gets) * 1e6, "us");
  }

  // The socket: one connection to a production-configured daemon.
  Daemon daemon;
  daemon.start(args.bin_dir, "layers/svc");
  const std::vector<std::string> served = daemon.warm(lines, out);
  const LoopResult loop =
      closed_loop(daemon.socket_path(), lines, served, std::max(0.05, 2 * budget), 1, args.seed, out);
  daemon.stop();
  const double roundtrip = median(loop.latencies_s) * 1e6;
  out.add("service.roundtrip_us", roundtrip, "us");
  out.add("service.hit_p99_us", quantile(loop.latencies_s, 0.99) * 1e6, "us");
  out.add("service.transport_us", roundtrip - with_logs, "us");
}

void sweep_layers(const Args& args, double budget, Outcome& out) {
  const std::string spec = sweep_spec(args.seed, 0, args.tiny);
  const std::vector<RunKey> keys = sweep_keys(spec);
  const double cells = static_cast<double>(keys.size());

  out.add("harness.sweep.expand_ms", 1e3 * per_unit(budget, 5, [&] {
            g_sink = g_sink + hn::parse_sweep_spec(spec).spec.cells.size();
            return 1.0;
          }),
          "ms");

  prepare_sweep_dir("layers/sweep", spec);
  {
    std::vector<double> starts;
    for (int rep = 0; rep < 5; ++rep) {
      const RunResult run = run_process({args.bin_dir + "/vlcsa_sweep", "--spec=spec.json", "--expand"},
                                        "layers/sweep", "layers/sweep/expand.out",
                                        "layers/sweep/expand.err");
      if (run.status != 0) out.fail("vlcsa_sweep --expand exited " + std::to_string(run.status));
      starts.push_back(run.wall_s);
    }
    out.add("process.start_ms", median(starts) * 1e3, "ms");
  }

  // The engine alone on every cell, in-process.
  out.add("harness.engine.run_ms_per_cell", 1e3 * per_unit(0.0, 1, [&] {
            for (const RunKey& key : keys) {
              hn::RunOptions options;
              options.samples = key.samples;
              options.seed = key.seed;
              options.threads = 1;
              if (const auto* rate = hn::find_error_rate_experiment(key.experiment)) {
                g_sink = g_sink + hn::run_experiment(*rate, options).actual_errors;
              } else {
                const auto* chain = hn::find_chain_profile_experiment(key.experiment);
                g_sink = g_sink + hn::run_experiment(*chain, options).total();
              }
            }
            return cells;
          }),
          "ms");

  // One run-batch chunk (the sweep's default 16 cells) through handle_line
  // on a fresh cache dir: engine + cache write + render, no orchestration.
  {
    std::string batch = "{\"request\": \"run-batch\", \"origin\": \"sweep\", \"runs\": [";
    const std::size_t chunk = std::min<std::size_t>(16, keys.size());
    for (std::size_t i = 0; i < chunk; ++i) {
      batch += (i == 0 ? "" : ", ") + std::string("{\"experiment\": \"") + keys[i].experiment +
               "\", \"samples\": " + std::to_string(keys[i].samples) +
               ", \"seed\": " + std::to_string(keys[i].seed) + "}";
    }
    batch += "]}";
    out.add("service.run_batch_ms_per_cell", 1e3 * per_unit(budget, 3, [&] {
              remove_tree("layers/batch");
              svc::ServiceConfig config;
              config.cache_dir = "layers/batch";
              config.threads = 1;
              svc::ExperimentService service(config);
              ++out.attempted;
              const svc::ExperimentService::Reply reply = service.handle_line(batch);
              if (!reply.ok || reply.line.find("\"status\": \"error\"", 1) != std::string::npos) {
                out.fail("run-batch: " + reply.line);
              }
              return static_cast<double>(chunk);
            }),
            "ms");
  }

  std::vector<double> cold;
  for (std::uint64_t pass = 0; pass < 3; ++pass) {
    prepare_sweep_dir("layers/sweep", sweep_spec(args.seed, pass, args.tiny));
    const PassResult result = sweep_pass(args, "layers/sweep", PassKind::kCold, out);
    cold.push_back(result.wall_s * 1e3 / static_cast<double>(result.cells));
  }
  out.add("harness.sweep.orchestration_ms_per_cell",
          median(cold) - out.get("service.run_batch_ms_per_cell"), "ms");
}

}  // namespace

EngineSummary run_layers(const Args& args, SpanLog& spans, Outcome& out) {
  const double budget = args.tiny ? 0.02 : std::max(0.1, args.seconds * 0.04);
  const EngineSummary engine = engine_layers(args, spans, out);
  arith_layers(args, budget, out);
  service_layers(args, budget, out);
  sweep_layers(args, budget, out);
  return engine;
}

}  // namespace perfbench
