// Adder explorer — the "C++ programs which ... generate Verilog files" flow
// of Ch. 7.1 as a command-line tool.  Builds any generator in the library,
// prints synthesis metrics, optionally writes the structural Verilog, and
// runs any named Monte Carlo experiment from the registry on the parallel
// sharded engine (bit-sliced batch pipeline by default; --batch=off selects
// the scalar oracle, byte-identical counters either way).
//
//   $ ./build/examples/adder_explorer --design=vlcsa2 --width=64 --window=13
//   $ ./build/examples/adder_explorer --design=kogge-stone --width=128 --verilog=ks128.v
//   $ ./build/examples/adder_explorer --list
//   $ ./build/examples/adder_explorer --list-experiments
//   $ ./build/examples/adder_explorer --experiment=table7.1/n64 --threads=4
//   $ ./build/examples/adder_explorer --experiment=table7.1/n64 --json=BENCH_t71_n64.json
//
// Argument parsing lives in harness/cli.{hpp,cpp} so it is unit-testable;
// unknown or malformed flags are hard errors, never silently ignored.

#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "adders/adders.hpp"
#include "harness/cli.hpp"
#include "harness/engine.hpp"
#include "harness/experiments.hpp"
#include "harness/json.hpp"
#include "harness/report.hpp"
#include "harness/synthesis.hpp"
#include "netlist/verilog.hpp"
#include "speculative/error_model.hpp"
#include "speculative/scsa_netlist.hpp"
#include "speculative/vlsa.hpp"

using namespace vlcsa;

namespace {

const char* kDesigns[] = {"ripple",      "carry-select", "carry-skip",  "kogge-stone",
                          "brent-kung",  "sklansky",     "han-carlson", "hybrid-ks-carry-select",
                          "designware",  "scsa1",        "scsa2",       "vlcsa1",
                          "vlcsa2",      "vlsa"};

void print_usage() {
  std::cout << "usage: adder_explorer [--design=NAME] [--width=N] [--window=K]\n"
               "                      [--chain=L] [--verilog=FILE] [--list]\n"
               "                      [--experiment=NAME] [--samples=N] [--seed=S]\n"
               "                      [--threads=T] [--batch=on|off] [--json=FILE]\n"
               "                      [--profile] [--list-experiments]\n"
               "  --design      one of the generators (default kogge-stone)\n"
               "  --width       adder width in bits (default 64)\n"
               "  --window      SCSA/VLCSA window size (default: sized for 0.01%)\n"
               "  --chain       VLSA speculative chain length (default: published)\n"
               "  --verilog     write structural Verilog to FILE\n"
               "  --list        list available designs\n"
               "  --experiment  run a registry experiment instead of building a design\n"
               "  --samples     experiment sample count (default: the experiment's own)\n"
               "  --seed        experiment seed (default 1)\n"
               "  --threads     worker threads, 0 = all hardware threads (default 0)\n"
               "  --batch       bit-sliced 64-samples-per-word pipeline (default on;\n"
               "                off = scalar oracle, byte-identical counters)\n"
               "  --json        also write the run to FILE as {\"record\", \"threads\",\n"
               "                \"wall_seconds\", \"samples_per_sec\", \"profile\"?}; the\n"
               "                record is byte-identical to the service's cached one\n"
               "  --profile     print the engine run profile (shards, RNG words drawn,\n"
               "                fill/eval/merge time split, backend) to stderr as one\n"
               "                JSON line; with --json the profile is also embedded\n"
               "                in the file as its \"profile\" member\n"
               "  --list-experiments  list registry experiment names\n";
}

netlist::Netlist build(const std::string& design, int width, int window, int chain) {
  using adders::AdderKind;
  if (design == "scsa1" || design == "scsa2") {
    const auto variant = design == "scsa1" ? spec::ScsaVariant::kScsa1 : spec::ScsaVariant::kScsa2;
    return spec::build_scsa_netlist({width, window}, variant);
  }
  if (design == "vlcsa1" || design == "vlcsa2") {
    const auto variant = design == "vlcsa1" ? spec::ScsaVariant::kScsa1 : spec::ScsaVariant::kScsa2;
    return spec::build_vlcsa_netlist({width, window}, variant);
  }
  if (design == "vlsa") return spec::build_vlsa_netlist({width, chain});
  for (const auto kind :
       {AdderKind::kRipple, AdderKind::kCarrySelect, AdderKind::kCarrySkip,
        AdderKind::kKoggeStone, AdderKind::kBrentKung, AdderKind::kSklansky,
        AdderKind::kHanCarlson, AdderKind::kHybridKsCarrySelect, AdderKind::kDesignWare}) {
    if (design == to_string(kind)) return adders::build_adder_netlist(kind, width);
  }
  throw std::invalid_argument("unknown design: " + design + " (try --list)");
}

void list_experiments() {
  std::cout << "error-rate experiments:\n";
  for (const auto& e : harness::error_rate_experiments()) {
    std::cout << "  " << e.name << "  (" << to_string(e.model) << ", n=" << e.width
              << ", k=" << e.window << ")\n";
  }
  std::cout << "carry-chain profile experiments:\n";
  for (const auto& e : harness::chain_profile_experiments()) {
    std::cout << "  " << e.name << "  (n=" << e.width << ")\n";
  }
}

/// The explorer's table view of a result record: its result fields, read
/// back, plus the run's wall time (which never enters the record).
void print_record(const std::string& record, const harness::RecordKey& key, bool error_rate,
                  double wall, double rate) {
  const harness::JsonParse parsed = harness::parse_json(record);
  if (!parsed.ok()) throw std::runtime_error("unparseable record: " + parsed.error);
  const auto raw = [&](const char* field) { return parsed.value.find(field)->number_text(); };
  const auto number = [&](const char* field) { return parsed.value.find(field)->as_double(); };

  harness::Table table({"metric", "value"});
  if (error_rate) {
    table.add_row({"samples", std::to_string(key.samples)});
    table.add_row({"actual error rate", harness::fmt_pct(number("actual_rate"), 3)});
    table.add_row({"nominal (stall) rate", harness::fmt_pct(number("nominal_rate"), 3)});
    table.add_row({"either-wrong rate", harness::fmt_pct(number("either_wrong_rate"), 3)});
    table.add_row({"false negatives", raw("false_negatives")});
    table.add_row({"emitted wrong", raw("emitted_wrong")});
    table.add_row({"avg cycles (eq. 5.2)", harness::fmt_fixed(number("avg_cycles"), 4)});
    table.add_row({"wall time [s]", harness::fmt_fixed(wall, 3)});
    table.add_row({"samples/sec", harness::fmt_fixed(rate, 0)});
  } else {
    table.add_row({"additions", raw("additions")});
    table.add_row({"chains", raw("chains")});
    table.add_row({"mean chain length", harness::fmt_fixed(number("mean_chain_length"), 2)});
    table.add_row(
        {"chains >= width/2", harness::fmt_pct(number("fraction_at_least_half_width"), 2)});
    table.add_row({"wall time [s]", harness::fmt_fixed(wall, 3)});
  }
  table.print(std::cout);
}

int run_experiment_by_name(const harness::ExplorerOptions& opt) {
  const harness::KeyResolution resolved =
      harness::record_key(opt.experiment, opt.samples, opt.seed,
                          opt.path_explicit ? std::optional(opt.path) : std::nullopt);
  if (resolved.error == harness::KeyError::kUnknownExperiment) {
    std::cerr << "unknown experiment: " << opt.experiment << " (try --list-experiments)\n";
    return 2;
  }
  if (resolved.error == harness::KeyError::kEvalPathOnChainProfile) {
    std::cerr << "error: --batch only applies to error-rate experiments; " << opt.experiment
              << " is a chain-profile experiment\n";
    return 2;
  }
  const harness::RecordKey& key = resolved.key;
  const auto* error_rate = harness::find_error_rate_experiment(key.experiment);
  const auto* chain_profile = harness::find_chain_profile_experiment(key.experiment);
  std::cout << key.experiment << ": "
            << (error_rate != nullptr ? error_rate->description : chain_profile->description)
            << "\n"
            << key.samples << " samples, seed " << key.seed;
  if (error_rate != nullptr) std::cout << ", " << to_string(key.path) << " evaluation";
  std::cout << "\n\n";

  harness::RunOptions options;
  options.threads = opt.threads;
  harness::RunProfileCollector collector;
  if (opt.profile) options.profile = &collector;
  const auto start = std::chrono::steady_clock::now();
  const harness::RecordRun run = harness::run_record(key, options);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  const double rate = wall > 0.0 ? static_cast<double>(key.samples) / wall : 0.0;
  const std::string profile = run.profile ? harness::render_run_profile(*run.profile) : "";
  if (!profile.empty()) std::cerr << profile << "\n";
  print_record(run.record, key, error_rate != nullptr, wall, rate);

  if (!opt.json_path.empty()) {
    // The envelope: the record bytes exactly as the service caches them,
    // then what belongs to this run only (threads, timing, profile).
    harness::JsonObject envelope;
    envelope.add_json("record", run.record);
    envelope.add("threads", harness::resolve_threads(opt.threads));
    envelope.add("wall_seconds", wall);
    envelope.add("samples_per_sec", rate);
    if (!profile.empty()) envelope.add_json("profile", profile);
    std::ofstream out(opt.json_path);
    if (!out) throw std::runtime_error("cannot open " + opt.json_path);
    envelope.write(out);
    std::cout << "wrote result record to " << opt.json_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parse = harness::parse_explorer_args(argc, argv);
  if (!parse.ok()) {
    std::cerr << "error: " << parse.error << "\n";
    print_usage();
    return 2;
  }
  const harness::ExplorerOptions& opt = parse.options;
  if (opt.show_help) {
    print_usage();
    return 0;
  }
  if (opt.list_designs) {
    for (const char* d : kDesigns) std::cout << "  " << d << "\n";
    return 0;
  }
  if (opt.list_experiments) {
    list_experiments();
    return 0;
  }

  try {
    if (!opt.experiment.empty()) {
      return run_experiment_by_name(opt);
    }

    int window = opt.window;
    int chain = opt.chain;
    if (window == 0) window = spec::min_window_for_error_rate(opt.width, 1e-4);
    if (chain == 0) {
      chain = (opt.width == 64 || opt.width == 128 || opt.width == 256 || opt.width == 512)
                  ? spec::vlsa_published_chain_length(opt.width)
                  : std::min(opt.width, window + 3);
    }

    const auto netlist = build(opt.design, opt.width, window, chain);
    const auto result = harness::synthesize(netlist);

    harness::Table table({"metric", "value"});
    table.add_row({"design", result.name});
    table.add_row({"gates (optimized)", std::to_string(result.gates)});
    table.add_row({"area [inv]", harness::fmt_fixed(result.area, 0)});
    table.add_row({"critical delay [tau]", harness::fmt_fixed(result.delay, 1)});
    for (const auto& [group, delay] : result.group_delay) {
      if (!group.empty()) {
        table.add_row({"delay of '" + group + "' [tau]", harness::fmt_fixed(delay, 1)});
      }
    }
    table.add_row({"max primary-input fanout", std::to_string(result.max_input_fanout)});
    table.print(std::cout);

    if (!opt.verilog_path.empty()) {
      std::ofstream out(opt.verilog_path);
      if (!out) throw std::runtime_error("cannot open " + opt.verilog_path);
      netlist::emit_verilog(netlist::optimize(netlist), out);
      std::cout << "wrote Verilog to " << opt.verilog_path << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
