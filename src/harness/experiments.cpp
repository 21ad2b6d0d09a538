#include "harness/experiments.hpp"

#include <cmath>
#include <stdexcept>

#include "harness/engine.hpp"
#include "harness/json.hpp"
#include "harness/report.hpp"
#include "speculative/error_model.hpp"

namespace vlcsa::harness {

namespace {

const arith::GaussianParams kPaperGaussian{0.0, std::ldexp(1.0, 32)};   // Ch. 7 inputs
const arith::GaussianParams kFig6Gaussian{0.0, std::ldexp(1.0, 20)};    // 32-bit figures

/// Stream versions (RecordKey::stream_version).  gauss-rng-v2: the Gaussian
/// sources moved from per-sample std::normal_distribution onto the block
/// ziggurat (arith::GaussianBlockSampler), redefining every Gaussian-input
/// counter.  crypto-rng-v2: run_crypto_workload's seeding moved onto the
/// shared seed_seq discipline (arith::make_stream_rng).  uniform-plane-v1:
/// the uniform-unsigned stream became plane-major (each 64-sample group is
/// raw bit-plane words).  uniform-plane-v2: it is drawn per 512-sample
/// superblock in BitSlicedBatch's 8-lane-word layout (see
/// UniformUnsignedSource); each step redefined every uniform-unsigned
/// counter and the fig6.1 histogram.  Two's-complement uniform streams were
/// untouched by all four and stay unversioned, so their keys never moved.
const char* stream_version(arith::InputDistribution dist) {
  switch (dist) {
    case arith::InputDistribution::kUniformUnsigned:
      return "uniform-plane-v2";
    case arith::InputDistribution::kGaussianUnsigned:
    case arith::InputDistribution::kGaussianTwos:
      return "gauss-rng-v2";
    case arith::InputDistribution::kUniformTwos:
      break;
  }
  return "";
}

const char* stream_version(const ChainProfileExperiment& experiment) {
  return experiment.workload == ChainProfileExperiment::Workload::kCrypto
             ? "crypto-rng-v2"
             : stream_version(experiment.dist);
}

std::string point_name(const std::string& artifact, const std::string& point) {
  return artifact + "/" + point;
}

/// Tables 7.1 / 7.2 — the published (n, k) design points against
/// 2's-complement Gaussian inputs, for each VLCSA variant.
void register_table7_1_and_7_2(std::vector<ErrorRateExperiment>& out) {
  for (const auto& row : spec::published_scsa_parameters()) {
    out.push_back({point_name("table7.1", "n" + std::to_string(row.n)),
                   "VLCSA 1 error rates, 2's-complement Gaussian (mu=0, sigma=2^32)",
                   ModelKind::kVlcsa1, row.n, row.k_rate_01,
                   arith::InputDistribution::kGaussianTwos, kPaperGaussian, 200000});
  }
  for (const auto& row : spec::published_scsa_parameters()) {
    out.push_back({point_name("table7.2", "n" + std::to_string(row.n)),
                   "VLCSA 2 error rates, 2's-complement Gaussian (mu=0, sigma=2^32)",
                   ModelKind::kVlcsa2, row.n, row.k_rate_01,
                   arith::InputDistribution::kGaussianTwos, kPaperGaussian, 200000});
  }
}

/// Table 7.4 — analytical window sizing at both error-rate targets, checked
/// against unsigned uniform inputs.
void register_table7_4(std::vector<ErrorRateExperiment>& out) {
  for (const int n : {64, 128, 256, 512}) {
    for (const auto& [tag, target] :
         {std::pair<const char*, double>{"rate0.01", 1e-4}, {"rate0.25", 2.5e-3}}) {
      out.push_back({point_name("table7.4", "n" + std::to_string(n) + "-" + tag),
                     "VLCSA 1 at the analytically sized window, unsigned uniform inputs",
                     ModelKind::kVlcsa1, n, spec::min_window_for_error_rate(n, target),
                     arith::InputDistribution::kUniformUnsigned, {}, 200000});
    }
  }
}

/// Fig 7.1 — the model-validation grid: widths × window sizes, uniform inputs.
void register_fig7_1(std::vector<ErrorRateExperiment>& out) {
  for (const int n : {64, 128, 256, 512}) {
    for (int k = 6; k <= 16; k += 2) {
      out.push_back({point_name("fig7.1", "n" + std::to_string(n) + "-k" + std::to_string(k)),
                     "SCSA error-model validation point, unsigned uniform inputs",
                     ModelKind::kVlcsa1, n, k, arith::InputDistribution::kUniformUnsigned,
                     {},
                     200000});
    }
  }
}

/// Eq. (5.2) — the average-latency streams behind the headline wall-clock
/// comparison: VLCSA 1 on uniform inputs and VLCSA 2 on Gaussian inputs,
/// both at the 0.25% design points.
void register_eq5_2(std::vector<ErrorRateExperiment>& out) {
  for (const int n : {64, 128, 256, 512}) {
    out.push_back({point_name("eq5.2", "n" + std::to_string(n) + "-uniform"),
                   "VLCSA 1 average latency, unsigned uniform inputs, 0.25% sizing",
                   ModelKind::kVlcsa1, n, spec::min_window_for_error_rate(n, 2.5e-3),
                   arith::InputDistribution::kUniformUnsigned, {}, 100000});
    out.push_back({point_name("eq5.2", "n" + std::to_string(n) + "-gaussian-2c"),
                   "VLCSA 2 average latency, 2's-complement Gaussian inputs, 0.25% sizing",
                   ModelKind::kVlcsa2, n, spec::published_vlcsa2_parameters().k_rate_25,
                   arith::InputDistribution::kGaussianTwos, kPaperGaussian, 100000});
  }
}

/// VLSA baseline points (Table 7.3's published chain lengths).
void register_vlsa_baseline(std::vector<ErrorRateExperiment>& out) {
  for (const int n : {64, 128, 256, 512}) {
    out.push_back({point_name("vlsa", "n" + std::to_string(n)),
                   "VLSA [17] baseline at the published chain length, uniform inputs",
                   ModelKind::kVlsa, n, spec::vlsa_published_chain_length(n),
                   arith::InputDistribution::kUniformUnsigned, {}, 200000});
  }
}

std::vector<ErrorRateExperiment> build_error_rate_registry() {
  std::vector<ErrorRateExperiment> out;
  register_table7_1_and_7_2(out);
  register_table7_4(out);
  register_fig7_1(out);
  register_eq5_2(out);
  register_vlsa_baseline(out);
  return out;
}

std::vector<ChainProfileExperiment> build_chain_profile_registry() {
  std::vector<ChainProfileExperiment> out;
  ChainProfileExperiment base;
  base.width = 32;

  base.name = point_name("fig6.1", "uniform-unsigned");
  base.description = "Carry-chain lengths, unsigned uniform inputs, 32-bit adder";
  base.dist = arith::InputDistribution::kUniformUnsigned;
  out.push_back(base);

  for (const auto kind : {arith::CryptoKind::kRsaLike, arith::CryptoKind::kDiffieHellmanLike,
                          arith::CryptoKind::kEcFieldLike}) {
    ChainProfileExperiment crypto;
    crypto.name = point_name("fig6.2", to_string(kind));
    crypto.description =
        "Carry-chain lengths from an instrumented crypto workload "
        "(16-bit prime field on a 32-bit datapath)";
    crypto.width = 32;
    crypto.workload = ChainProfileExperiment::Workload::kCrypto;
    crypto.crypto_kind = kind;
    crypto.crypto_field_bits = 16;
    crypto.crypto_exponent_bits = 24;
    crypto.default_samples = 4;  // top-level crypto operations, not additions
    out.push_back(crypto);
  }

  base.name = point_name("fig6.3", "uniform-twos-complement");
  base.description = "Carry-chain lengths, 2's-complement uniform inputs, 32-bit adder";
  base.dist = arith::InputDistribution::kUniformTwos;
  out.push_back(base);

  base.name = point_name("fig6.4", "gaussian-unsigned");
  base.description =
      "Carry-chain lengths, unsigned Gaussian inputs (mu=0, sigma=2^20), 32-bit adder";
  base.dist = arith::InputDistribution::kGaussianUnsigned;
  base.params = kFig6Gaussian;
  out.push_back(base);

  base.name = point_name("fig6.5", "gaussian-twos-complement");
  base.description =
      "Carry-chain lengths, 2's-complement Gaussian inputs (mu=0, sigma=2^20), 32-bit adder";
  base.dist = arith::InputDistribution::kGaussianTwos;
  out.push_back(base);
  return out;
}

template <typename Experiment>
const Experiment* find_by_name(const std::vector<Experiment>& experiments,
                               std::string_view name) {
  for (const auto& experiment : experiments) {
    if (experiment.name == name) return &experiment;
  }
  return nullptr;
}

template <typename Experiment>
std::vector<const Experiment*> find_by_prefix(const std::vector<Experiment>& experiments,
                                              std::string_view prefix) {
  std::vector<const Experiment*> out;
  for (const auto& experiment : experiments) {
    if (std::string_view(experiment.name).substr(0, prefix.size()) == prefix) {
      out.push_back(&experiment);
    }
  }
  return out;
}

}  // namespace

ErrorRateResult run_experiment(const ErrorRateExperiment& experiment,
                               const RunOptions& options, EvalPath path) {
  return run_model(experiment.model, experiment.width, experiment.window,
                   *arith::make_source(experiment.dist, experiment.width, experiment.params),
                   options, path);
}

arith::CarryChainProfiler run_experiment(const ChainProfileExperiment& experiment,
                                         const RunOptions& options) {
  if (experiment.workload == ChainProfileExperiment::Workload::kCrypto) {
    // One sample = one top-level crypto operation; the shard RNG seeds each
    // operation's workload, so the profile is thread-count-invariant like
    // every other experiment.
    const auto make_profiler = [&] {
      return arith::CarryChainProfiler(experiment.width, arith::ChainMetric::kAllChains);
    };
    return run_sharded(options, make_profiler, [&] {
      return [&experiment](arith::BlockRng& rng, arith::CarryChainProfiler& acc) {
        arith::CryptoWorkloadConfig config;
        config.width = experiment.width;
        config.field_bits = experiment.crypto_field_bits;
        config.kind = experiment.crypto_kind;
        config.operations = 1;
        config.exponent_bits = experiment.crypto_exponent_bits;
        config.seed = rng();
        run_crypto_workload(config, acc);
      };
    });
  }
  const auto source = arith::make_source(experiment.dist, experiment.width, experiment.params);
  return run_chain_profile(*source, options);
}

const std::vector<ErrorRateExperiment>& error_rate_experiments() {
  static const std::vector<ErrorRateExperiment> registry = build_error_rate_registry();
  return registry;
}

const std::vector<ChainProfileExperiment>& chain_profile_experiments() {
  static const std::vector<ChainProfileExperiment> registry = build_chain_profile_registry();
  return registry;
}

const ErrorRateExperiment* find_error_rate_experiment(std::string_view name) {
  return find_by_name(error_rate_experiments(), name);
}

const ChainProfileExperiment* find_chain_profile_experiment(std::string_view name) {
  return find_by_name(chain_profile_experiments(), name);
}

std::vector<const ErrorRateExperiment*> error_rate_experiments_with_prefix(
    std::string_view prefix) {
  return find_by_prefix(error_rate_experiments(), prefix);
}

std::vector<const ChainProfileExperiment*> chain_profile_experiments_with_prefix(
    std::string_view prefix) {
  return find_by_prefix(chain_profile_experiments(), prefix);
}

namespace {

// The result records.  Field order and spelling are the cache format: the
// disk tier re-parses the key fields add_key_fields writes and checks them
// against the key (record_matches_key), describe replies lead with the same
// identity fields, and registry_pin_test pins every entry's bytes.
void add_identity_fields(JsonObject& out, const ErrorRateExperiment& experiment) {
  out.add("experiment", experiment.name);
  out.add("kind", "error-rate");
  out.add("model", to_string(experiment.model));
  out.add("width", experiment.width);
  out.add("window", experiment.window);
  out.add("distribution", arith::to_string(experiment.dist));
}

void add_identity_fields(JsonObject& out, const ChainProfileExperiment& experiment) {
  const bool crypto = experiment.workload == ChainProfileExperiment::Workload::kCrypto;
  out.add("experiment", experiment.name);
  out.add("kind", "chain-profile");
  out.add("width", experiment.width);
  out.add("workload", crypto ? "crypto" : "distribution");
  out.add("source", crypto ? std::string(to_string(experiment.crypto_kind))
                           : arith::to_string(experiment.dist));
}

void add_key_fields(JsonObject& record, const RecordKey& key) {
  record.add("samples", key.samples);
  record.add("seed", key.seed);
  record.add("eval_path", to_string(key.path));
  if (!key.stream_version.empty()) record.add("stream_version", key.stream_version);
}

std::string error_rate_record(const ErrorRateExperiment& experiment, const RecordKey& key,
                              const ErrorRateResult& result) {
  JsonObject record;
  add_identity_fields(record, experiment);
  add_key_fields(record, key);
  record.add("actual_errors", result.actual_errors);
  record.add("nominal_errors", result.nominal_errors);
  record.add("false_negatives", result.false_negatives);
  record.add("either_wrong", result.either_wrong);
  record.add("emitted_wrong", result.emitted_wrong);
  record.add("total_cycles", result.total_cycles);
  record.add("actual_rate", result.actual_rate());
  record.add("nominal_rate", result.nominal_rate());
  record.add("either_wrong_rate", result.either_wrong_rate());
  record.add("avg_cycles", result.average_cycles());
  return record.render_line();
}

std::string chain_profile_record(const ChainProfileExperiment& experiment, const RecordKey& key,
                                 const arith::CarryChainProfiler& profiler) {
  JsonObject record;
  add_identity_fields(record, experiment);
  add_key_fields(record, key);
  record.add("additions", profiler.additions());
  record.add("chains", profiler.total());
  record.add("mean_chain_length", profiler.mean_length());
  record.add("fraction_at_least_half_width",
             profiler.fraction_at_least(experiment.width / 2));
  return record.render_line();
}

}  // namespace

KeyResolution record_key(std::string_view name, std::uint64_t samples, std::uint64_t seed,
                         std::optional<EvalPath> path) {
  if (const ErrorRateExperiment* experiment = find_error_rate_experiment(name)) {
    return {{experiment->name, samples == 0 ? experiment->default_samples : samples, seed,
             path.value_or(EvalPath::kBatched), stream_version(experiment->dist)}};
  }
  const ChainProfileExperiment* chain = find_chain_profile_experiment(name);
  if (chain == nullptr) return {{}, KeyError::kUnknownExperiment};
  if (path) return {{}, KeyError::kEvalPathOnChainProfile};
  return {{chain->name, samples == 0 ? chain->default_samples : samples, seed, EvalPath::kScalar,
           stream_version(*chain)}};
}

std::string encode_key(const RecordKey& key, KeyEncoding encoding) {
  std::string out = key.experiment + "|" + std::to_string(key.samples) + "|" +
                    std::to_string(key.seed) + "|" + to_string(key.path);
  // Appended only when set, so unversioned entries keep their historical
  // cache keys (and therefore their on-disk record file names) byte-for-byte.
  if (encoding == KeyEncoding::kCache && !key.stream_version.empty()) {
    out += "|" + key.stream_version;
  }
  return out;
}

bool record_matches_key(const std::string& record, const RecordKey& key) {
  const JsonParse parse = parse_json(record);  // find() is nullptr on a non-object
  const auto text_is = [&parse](const char* name, std::string_view expected) {
    const JsonValue* field = parse.value.find(name);
    return field != nullptr && field->kind() == JsonValue::Kind::kString &&
           field->as_string() == expected;
  };
  const auto u64_is = [&parse](const char* name, std::uint64_t expected) {
    const JsonValue* field = parse.value.find(name);
    std::uint64_t value = 0;
    return field != nullptr && field->to_u64(value) && value == expected;
  };
  return parse.ok() && text_is("experiment", key.experiment) && u64_is("samples", key.samples) &&
         u64_is("seed", key.seed) && text_is("eval_path", to_string(key.path)) &&
         (key.stream_version.empty() || text_is("stream_version", key.stream_version));
}

bool describe_experiment(std::string_view name, JsonObject& out) {
  const auto describe = [&out](const auto& experiment) {
    add_identity_fields(out, experiment);
    out.add("default_samples", experiment.default_samples);
    out.add("description", experiment.description);
    return true;
  };
  if (const auto* experiment = find_error_rate_experiment(name)) return describe(*experiment);
  if (const auto* chain = find_chain_profile_experiment(name)) return describe(*chain);
  return false;
}

RecordRun run_record(const RecordKey& key, RunOptions options) {
  options.samples = key.samples;
  options.seed = key.seed;
  RecordRun out;
  if (const ErrorRateExperiment* experiment = find_error_rate_experiment(key.experiment)) {
    out.record = error_rate_record(*experiment, key, run_experiment(*experiment, options, key.path));
  } else if (const ChainProfileExperiment* chain = find_chain_profile_experiment(key.experiment)) {
    out.record = chain_profile_record(*chain, key, run_experiment(*chain, options));
  } else {
    throw std::invalid_argument("unknown experiment '" + key.experiment + "'");
  }
  if (options.profile != nullptr) out.profile = options.profile->snapshot();
  return out;
}

}  // namespace vlcsa::harness
