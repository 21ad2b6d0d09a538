// perfbench — the repository benchmark binary.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             --bin-dir=DIR --work-dir=DIR [--trace-out=FILE]
//             [--tiny] [--fault=corrupt-expected]
//
// Untraced (--trace=0) runs print every end-to-end metric; traced runs
// print every per-layer metric.  The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the lines before it carry
// the host and simulated-statistics fingerprints.  perfbench/run.py builds
// this binary and is the normal entry point; README.md documents the
// workloads and metrics.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "harness/json.hpp"
#include "harness/sweep.hpp"
#include "service/service.hpp"
#include "util.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace perfbench {

namespace {

const std::vector<std::string> kWorkloads = {"mc-uniform-n512", "mc-gauss-n64", "svc-hit",
                                             "sweep-cold", "sweep-warm"};

// svc-hit key pool: error-rate points over every model family and the four
// distribution chain profiles, so record sizes vary.
const std::vector<std::string> kSvcExperiments = {
    "table7.1/n64",         "table7.1/n128",          "table7.2/n64",
    "table7.4/n64-rate0.25", "table7.4/n512-rate0.01", "fig7.1/n128-k10",
    "eq5.2/n256-uniform",    "vlsa/n64",               "fig6.1/uniform-unsigned",
    "fig6.3/uniform-twos-complement", "fig6.4/gaussian-unsigned",
    "fig6.5/gaussian-twos-complement"};

}  // namespace

bool is_mc(const std::string& workload) { return workload.rfind("mc-", 0) == 0; }
bool is_sweep(const std::string& workload) { return workload.rfind("sweep-", 0) == 0; }

std::string run_line(const RunKey& key) {
  return "{\"request\": \"run\", \"experiment\": \"" + key.experiment +
         "\", \"samples\": " + std::to_string(key.samples) +
         ", \"seed\": " + std::to_string(key.seed) + "}";
}

std::string engine_experiment(const std::string& workload) {
  if (workload == "mc-uniform-n512") return "eq5.2/n512-uniform";
  return "table7.1/n64";
}

std::vector<RunKey> svc_key_pool(std::uint64_t seed, bool tiny) {
  std::vector<RunKey> keys;
  for (std::uint64_t copy = 0; copy < 2; ++copy) {
    for (std::size_t i = 0; i < kSvcExperiments.size(); ++i) {
      keys.push_back({kSvcExperiments[i], tiny ? 256u : 4096u,
                      derive_seed(seed, 2, copy * kSvcExperiments.size() + i)});
    }
  }
  return keys;
}

std::string sweep_spec(std::uint64_t seed, std::uint64_t pass, bool tiny) {
  const std::string experiments =
      tiny ? "\"table7.1/n64\", \"vlsa/n64\", \"fig6.1/uniform-unsigned\""
           : "\"table7.1/\", \"table7.2/\", \"table7.4/\", \"fig7.1/\", \"eq5.2/\", "
             "\"vlsa/\", \"fig6.1/uniform-unsigned\", \"fig6.3/uniform-twos-complement\", "
             "\"fig6.4/gaussian-unsigned\", \"fig6.5/gaussian-twos-complement\"";
  return "{\"name\": \"perfbench\", \"experiments\": [" + experiments +
         "], \"samples\": [" + std::to_string(tiny ? 256 : 4096) +
         "], \"seeds\": [" + std::to_string(derive_seed(seed, 3, pass)) + "]}";
}

std::vector<RunKey> sweep_keys(const std::string& spec_text) {
  const vlcsa::harness::SweepSpecParse parsed = vlcsa::harness::parse_sweep_spec(spec_text);
  if (!parsed.ok()) throw std::runtime_error("sweep spec: " + parsed.error);
  std::vector<RunKey> keys;
  for (const vlcsa::harness::SweepCell& cell : parsed.spec.cells) {
    keys.push_back({cell.experiment, cell.samples, cell.seed});
  }
  return keys;
}

std::vector<std::string> daemon_argv(const std::string& bin_dir, const std::string& cache_dir) {
  return {bin_dir + "/vlcsa_serve",
          "--socket=svc.sock",
          "--cache-dir=" + cache_dir,
          "--trace-log=trace.jsonl",
          "--access-log=access.jsonl",
          "--access-log-max-bytes=67108864",
          "--threads=1",
          "--workers=2",
          "--timeout-ms=60000"};
}

std::vector<std::string> sweep_argv(const std::string& bin_dir, const std::string& spec_path,
                                    const std::string& cache_dir, const std::string& report_path,
                                    const std::string& event_log_path) {
  return {bin_dir + "/vlcsa_sweep",   "--spec=" + spec_path,  "--cache-dir=" + cache_dir,
          "--threads=1",              "--progress=off",       "--json=" + report_path,
          "--event-log=" + event_log_path};
}

std::string stream_version_of(const std::string& experiment) {
  vlcsa::service::ExperimentService service(vlcsa::service::ServiceConfig{});
  const std::string reply = service.handle_line(run_line({experiment, 64, 1})).line;
  std::size_t from = 0;
  const vlcsa::harness::JsonParse parsed =
      vlcsa::harness::parse_json(raw_object_field(reply, "record", from));
  if (!parsed.ok()) throw std::runtime_error("no record for " + experiment + ": " + reply);
  const vlcsa::harness::JsonValue* version = parsed.value.find("stream_version");
  return version == nullptr ? "none" : version->as_string();
}

}  // namespace perfbench

namespace {

void usage() {
  std::cerr << "usage: perfbench --workload=NAME --seed=N --seconds=S --trace=0|1\n"
               "                 --bin-dir=DIR --work-dir=DIR [--trace-out=FILE]\n"
               "                 [--tiny] [--fault=corrupt-expected]\n"
               "workloads:";
  for (const std::string& name : kWorkloads) std::cerr << " " << name;
  std::cerr << "\n";
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      args.tiny = true;
      continue;
    }
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string name = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    try {
      if (name == "workload") {
        args.workload = value;
      } else if (name == "seed") {
        args.seed = std::stoull(value);
      } else if (name == "seconds") {
        args.seconds = std::stod(value);
      } else if (name == "trace") {
        if (value != "0" && value != "1") return false;
        args.trace = value == "1";
      } else if (name == "bin-dir") {
        args.bin_dir = value;
      } else if (name == "work-dir") {
        args.work_dir = value;
      } else if (name == "trace-out") {
        args.trace_out = value;
      } else if (name == "fault") {
        if (value != "corrupt-expected") return false;
        args.fault = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  bool known = false;
  for (const std::string& name : kWorkloads) known = known || name == args.workload;
  return known && args.seconds > 0 && !args.bin_dir.empty() && !args.work_dir.empty();
}

std::string render_metrics(const Outcome& out) {
  std::string text = "{";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& metric = out.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    text += (i == 0 ? "\"" : ", \"") + metric.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  return text + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    usage();
    return 2;
  }
  const std::filesystem::path work_dir = std::filesystem::absolute(args.work_dir);
  const std::filesystem::path home = std::filesystem::current_path();
  Outcome out;
  SpanLog spans;
  int status = 0;
  try {
    remove_tree(work_dir.string());
    make_dirs(work_dir.string());
    // Every scratch path below is relative to the work dir, which keeps the
    // daemon's Unix socket path short wherever the checkout lives.
    std::filesystem::current_path(work_dir);
    if (!args.trace) {
      if (is_mc(args.workload)) {
        run_mc(args, out);
      } else if (args.workload == "svc-hit") {
        run_svc(args, out);
      } else {
        run_sweep(args, out);
      }
    } else {
      const EngineSummary engine = run_layers(args, spans, out);
      if (is_mc(args.workload)) {
        trace_mc(engine, out);
      } else if (args.workload == "svc-hit") {
        trace_svc(args, spans, out);
      } else {
        trace_sweep(args, spans, out);
      }
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    status = 1;
  }
  std::filesystem::current_path(home);
  remove_tree(work_dir.string());
  if (status != 0) return status;

  if (args.trace && !args.trace_out.empty() && !spans.write(args.trace_out)) {
    std::cerr << "warning: cannot write spans to " << args.trace_out << "\n";
  }
  for (Metric& metric : out.metrics) {
    if (!std::isfinite(metric.value)) {
      out.fail("metric " + metric.name + " is not finite");
      metric.value = 0.0;
    }
  }
  for (const std::string& failure : out.failures) std::cerr << "FAILED: " << failure << "\n";
  out.fingerprint["workload"] = args.workload;
  out.fingerprint["seed"] = std::to_string(args.seed);
  std::cout << "host " << render_map(host_fingerprint()) << "\n";
  std::cout << "fingerprint " << render_map(out.fingerprint) << "\n";
  std::cout << "{\"correct\": " << (out.failed == 0 && out.attempted > 0 ? "true" : "false")
            << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
            << ", \"metrics\": " << render_metrics(out) << "}" << std::endl;
  return 0;
}
