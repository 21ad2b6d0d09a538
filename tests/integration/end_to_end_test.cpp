// Cross-module integration tests: each one walks a full pipeline the way the
// bench binaries and examples do, at reduced scale.

#include <gtest/gtest.h>

#include <sstream>

#include "adders/adders.hpp"
#include "arith/workload.hpp"
#include "harness/montecarlo.hpp"
#include "harness/report.hpp"
#include "harness/synthesis.hpp"
#include "netlist/verilog.hpp"
#include "speculative/error_model.hpp"
#include "speculative/scsa_netlist.hpp"
#include "speculative/vlsa.hpp"

namespace vlcsa {
namespace {

TEST(EndToEnd, Fig71PipelineModelVsMonteCarlo) {
  // Analytical model vs simulated nominal rate across a small (n, k) grid —
  // the Fig 7.1 pipeline at reduced sample count.
  for (const int n : {64, 128}) {
    for (const int k : {6, 8, 10}) {
      auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, n);
      const auto result = harness::run_model(harness::ModelKind::kVlcsa1, n, k, *source,
                                             {.samples = 100000, .seed = 5});
      const double model = spec::scsa_exact_error_rate(n, k);
      EXPECT_TRUE(harness::wilson_interval(result.nominal_errors, result.samples, 5.0)
                      .contains(model))
          << "n=" << n << " k=" << k << " nominal " << result.nominal_rate() << " vs " << model;
    }
  }
}

TEST(EndToEnd, Table74PipelineSizesThenValidates) {
  // Size windows analytically, then confirm by simulation that the achieved
  // rate is near the target (the Table 7.4 pipeline).
  const double target = 2.5e-3;
  const int n = 128;
  const int k = spec::min_window_for_error_rate(n, target);
  auto source = arith::make_source(arith::InputDistribution::kUniformUnsigned, n);
  const auto result = harness::run_model(harness::ModelKind::kVlcsa1, n, k, *source,
                                         {.samples = 200000, .seed = 9});
  EXPECT_LT(result.nominal_rate(), 2.0 * target);
}

TEST(EndToEnd, SynthesisComparisonPipeline) {
  // The Fig 7.8-style flow: build VLCSA 1 and the DesignWare substitute at
  // one width, synthesize both, compare "correctly speculated" delay.
  const int n = 64;
  const int k = spec::min_window_for_error_rate(n, 1e-4);
  const auto vlcsa = harness::synthesize(
      spec::build_vlcsa_netlist(spec::ScsaConfig{n, k}, spec::ScsaVariant::kScsa1));
  const auto dw = harness::synthesize(adders::build_designware_adder(n));
  const double correctly_spec =
      std::max(vlcsa.delay_of(spec::kGroupSpec), vlcsa.delay_of(spec::kGroupDetect));
  EXPECT_LT(correctly_spec, dw.delay);
}

TEST(EndToEnd, CryptoWorkloadShowsBimodalChainsAndVlcsa2Wins) {
  // Fig 6.2 + Table 7.2 story: the crypto workload exhibits long chains;
  // VLCSA 2 stalls less than VLCSA 1 on the same operand stream.
  arith::CarryChainProfiler profiler(64, arith::ChainMetric::kAllChains);
  arith::CryptoWorkloadConfig config;
  config.width = 64;
  config.field_bits = 16;  // 16-bit residues on a 64-bit datapath
  config.kind = arith::CryptoKind::kEcFieldLike;
  config.operations = 8;
  run_crypto_workload(config, profiler);
  EXPECT_GT(profiler.fraction_at_least(40), 0.0005);  // long chains present

  // Replay the same mechanism through the VLCSA models via a Gaussian proxy.
  auto source = arith::make_source(arith::InputDistribution::kGaussianTwos, 64,
                                   arith::GaussianParams{0.0, std::ldexp(1.0, 32)});
  const auto v1 = harness::run_model(harness::ModelKind::kVlcsa1, 64, 14, *source,
                                     {.samples = 20000, .seed = 3});
  auto source2 = arith::make_source(arith::InputDistribution::kGaussianTwos, 64,
                                    arith::GaussianParams{0.0, std::ldexp(1.0, 32)});
  const auto v2 = harness::run_model(harness::ModelKind::kVlcsa2, 64, 14, *source2,
                                     {.samples = 20000, .seed = 3});
  EXPECT_LT(v2.nominal_rate(), 0.1 * v1.nominal_rate());
}

TEST(EndToEnd, VerilogEmissionOfEveryGeneratedStructure) {
  // The paper's deliverable: generator -> Verilog.  Smoke-check module
  // structure for one instance of each generator family.
  const auto check = [](const netlist::Netlist& nl) {
    const std::string v = netlist::to_verilog(nl);
    EXPECT_NE(v.find("module "), std::string::npos);
    EXPECT_NE(v.find("endmodule"), std::string::npos);
    EXPECT_NE(v.find("input [63:0] a;"), std::string::npos);
  };
  check(adders::build_adder_netlist(adders::AdderKind::kKoggeStone, 64));
  check(spec::build_scsa_netlist(spec::ScsaConfig{64, 14}, spec::ScsaVariant::kScsa1));
  check(spec::build_vlcsa_netlist(spec::ScsaConfig{64, 14}, spec::ScsaVariant::kScsa2));
  check(spec::build_vlsa_netlist(spec::VlsaConfig{64, 17}));
  check(adders::build_designware_adder(64));
}

TEST(EndToEnd, ReportTableRendersBenchRow) {
  harness::Table table({"n", "k", "P_err (model)", "P_err (sim)"});
  table.add_row({"64", "14", harness::fmt_pct(spec::scsa_error_rate(64, 14)),
                 harness::fmt_pct(1.2e-4)});
  std::ostringstream os;
  table.print(os);
  EXPECT_NE(os.str().find("0.01%"), std::string::npos);
}

}  // namespace
}  // namespace vlcsa
