// Ablation — the window-size knob.  One sweep shows the whole design space
// of Ch. 3-5 at a glance: smaller k is faster and smaller but errs (stalls)
// more; the analytical model (3.13) prices the trade exactly.

#include <algorithm>
#include <iostream>

#include "arith/distributions.hpp"
#include "harness/montecarlo.hpp"
#include "harness/report.hpp"
#include "harness/synthesis.hpp"
#include "speculative/error_model.hpp"
#include "speculative/scsa_netlist.hpp"

using namespace vlcsa;

int main(int argc, char** argv) {
  const auto args = harness::BenchArgs::parse(argc, argv, 100000);
  harness::print_banner(std::cout, "Ablation: window size",
                        "VLCSA 1 at n = 128 across window sizes: correct-path delay, "
                        "area, model stall rate, simulated average cycles (" +
                            std::to_string(args.samples) + " samples).");

  const int n = 128;
  harness::Table table({"k", "windows", "correct-path delay", "area", "P_stall (model)",
                        "avg cycles (sim)", "time/add"});
  for (const int k : {6, 8, 10, 12, 14, 15, 16, 20, 24}) {
    const auto synth = harness::synthesize(
        spec::build_vlcsa_netlist(spec::ScsaConfig{n, k}, spec::ScsaVariant::kScsa1));
    const double tclk = std::max(synth.delay_of("spec"), synth.delay_of("detect"));
    auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, n);
    const auto mc = harness::run_model(
        harness::ModelKind::kVlcsa1, n, k, *source,
        {.samples = args.samples, .seed = args.seed, .threads = args.threads});
    table.add_row({std::to_string(k), std::to_string((n + k - 1) / k),
                   harness::fmt_fixed(tclk, 1), harness::fmt_fixed(synth.area, 0),
                   harness::fmt_pct(spec::scsa_error_rate(n, k), 3),
                   harness::fmt_fixed(mc.average_cycles(), 4),
                   harness::fmt_fixed(tclk * mc.average_cycles(), 1)});
  }
  table.print(std::cout);
  std::cout << "\nExpected: time/add is U-shaped — tiny windows stall too often, huge\n"
               "windows lose the speculation win; the sweet spot sits near the\n"
               "Table 7.4 sizing (k = 15 at this width for 0.01%).\n";
  return 0;
}
