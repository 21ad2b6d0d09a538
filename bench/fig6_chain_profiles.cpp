// Figs 6.1–6.5 — carry-chain length histograms on a 32-bit adder, one per
// registry "fig6." entry: unsigned uniform (6.1), the instrumented
// cryptographic workloads (6.2), 2's-complement uniform (6.3), unsigned
// Gaussian (6.4) and 2's-complement Gaussian (6.5) inputs.
//
// Fig 6.2 stands in for Cilardo [6]'s proprietary RSA / ECC / Diffie-Hellman
// traces with real modular arithmetic (16-bit residues on a 32-bit
// datapath, see src/arith/workload.hpp); one of its samples is one
// top-level crypto operation.  The Gaussian figures use sigma = 2^20, which
// keeps |sample| inside 32 bits.
// The shape each figure shows (geometric decay, or a second mode of
// sign-extension chains) is checked by paper_claims.
//
// --samples=N sets the samples of every entry (default: each entry's own).

#include <algorithm>
#include <iostream>
#include <string>

#include "harness/experiments.hpp"
#include "harness/report.hpp"

using namespace vlcsa;

namespace {

/// Prints a carry-chain length histogram as rows of "length | % | bar",
/// the textual rendering of the Figs 6.1–6.5 bar charts.
void print_chain_histogram(const arith::CarryChainProfiler& profiler) {
  double peak = 0.0;
  for (int len = 1; len <= profiler.width(); ++len) {
    peak = std::max(peak, profiler.fraction(len));
  }
  harness::Table table({"chain length", "fraction", "histogram"});
  for (int len = 1; len <= profiler.width(); ++len) {
    const double f = profiler.fraction(len);
    const int bar = peak > 0.0 ? static_cast<int>(f / peak * 40.0 + 0.5) : 0;
    table.add_row({std::to_string(len), harness::fmt_pct(f, 3), std::string(bar, '#')});
  }
  table.print(std::cout);
  std::cout << "chains recorded: " << profiler.total() << " over " << profiler.additions()
            << " additions; mean length " << harness::fmt_fixed(profiler.mean_length(), 2)
            << "\nfraction of chains reaching >= half the datapath: "
            << harness::fmt_pct(profiler.fraction_at_least(profiler.width() / 2), 2) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = harness::BenchArgs::parse(argc, argv, 0);
  for (const auto* experiment : harness::chain_profile_experiments_with_prefix("fig6.")) {
    const std::uint64_t samples = args.samples != 0 ? args.samples : experiment->default_samples;
    harness::print_banner(std::cout, experiment->name,
                          experiment->description + ", " + std::to_string(samples) + " samples.");
    print_chain_histogram(
        harness::run_experiment(*experiment, samples, args.seed, args.threads));
    std::cout << "\n";
  }
  return 0;
}
