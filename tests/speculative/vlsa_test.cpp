#include "speculative/vlsa.hpp"

#include <gtest/gtest.h>

#include <random>

#include "common/testutil.hpp"
#include "netlist/opt.hpp"
#include "netlist/simulator.hpp"
#include "netlist/timing.hpp"
#include "speculative/error_model.hpp"

namespace vlcsa::spec {
namespace {

using arith::ApInt;
using netlist::Netlist;
using netlist::Simulator;

TEST(VlsaModel, RejectsBadConfig) {
  EXPECT_THROW(VlsaModel(VlsaConfig{0, 4}), std::invalid_argument);
  EXPECT_THROW(VlsaModel(VlsaConfig{32, 0}), std::invalid_argument);
  EXPECT_THROW(VlsaModel(VlsaConfig{32, 33}), std::invalid_argument);
  // The batched run counter holds at most 16 planes.
  EXPECT_NO_THROW(VlsaModel(VlsaConfig{70000, 65535}));
  EXPECT_THROW(VlsaModel(VlsaConfig{70000, 65536}), std::invalid_argument);
}

TEST(VlsaModel, FullChainLengthIsExact) {
  const VlsaModel model(VlsaConfig{32, 32});
  vlcsa::arith::BlockRng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto ev = model.evaluate(ApInt::random(32, rng), ApInt::random(32, rng));
    EXPECT_TRUE(ev.spec_correct());
  }
}

TEST(VlsaModel, SpecMatchesDirectWindowedCarryDefinition) {
  // Cross-check the word-parallel implementation against the direct
  // bit-by-bit definition: carry out of bit j = group generate over the
  // min(l, j+1) bits ending at j.
  const int n = 40, l = 7;
  const VlsaModel model(VlsaConfig{n, l});
  vlcsa::arith::BlockRng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const auto a = ApInt::random(n, rng);
    const auto b = ApInt::random(n, rng);
    const auto ev = model.evaluate(a, b);
    const arith::PropagateGenerate pg(a, b);
    ApInt direct(n);
    direct.set_bit(0, pg.p.bit(0));
    for (int bit = 1; bit < n; ++bit) {
      const int len = std::min(l, bit);
      const bool carry = pg.group_generate(bit - len, len);
      direct.set_bit(bit, pg.p.bit(bit) ^ carry);
    }
    const int len = std::min(l, n);
    const bool cout = pg.group_generate(n - len, len);
    ASSERT_EQ(ev.spec, direct) << "iteration " << i;
    ASSERT_EQ(ev.spec_cout, cout);
  }
}

TEST(VlsaModel, DetectionNeverMissesAnError) {
  const int n = 48, l = 5;
  const VlsaModel model(VlsaConfig{n, l});
  vlcsa::arith::BlockRng rng(5);
  for (int i = 0; i < 50000; ++i) {
    const auto ev = model.evaluate(ApInt::random(n, rng), ApInt::random(n, rng));
    if (!ev.spec_correct()) {
      ASSERT_TRUE(ev.err);
    }
  }
}

TEST(VlsaModel, DetectionOverestimates) {
  // An l-run of propagates without an entering carry flags but does not err.
  const int n = 48, l = 5;
  const VlsaModel model(VlsaConfig{n, l});
  vlcsa::arith::BlockRng rng(7);
  int flagged = 0, wrong = 0;
  for (int i = 0; i < 50000; ++i) {
    const auto ev = model.evaluate(ApInt::random(n, rng), ApInt::random(n, rng));
    flagged += ev.err ? 1 : 0;
    wrong += ev.spec_correct() ? 0 : 1;
  }
  EXPECT_GT(flagged, wrong);
}

TEST(VlsaModel, RecoveredEqualsExact) {
  const VlsaModel model(VlsaConfig{64, 8});
  vlcsa::arith::BlockRng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const auto ev = model.evaluate(ApInt::random(64, rng), ApInt::random(64, rng));
    EXPECT_EQ(ev.recovered, ev.exact);
    EXPECT_EQ(ev.recovered_cout, ev.exact_cout);
  }
}

struct VlsaNetlistCase {
  int width;
  int chain;
};

class VlsaNetlistTest : public ::testing::TestWithParam<VlsaNetlistCase> {};

TEST_P(VlsaNetlistTest, MatchesBehavioralModel) {
  const auto [n, l] = GetParam();
  const VlsaConfig config{n, l};
  const Netlist nl = netlist::optimize(build_vlsa_netlist(config));
  const VlsaModel model(config);
  Simulator sim(nl);
  vlcsa::arith::BlockRng rng(static_cast<unsigned>(n * 1000 + l));
  for (int round = 0; round < 4; ++round) {
    std::vector<ApInt> a, b;
    for (int v = 0; v < 64; ++v) {
      a.push_back(ApInt::random(n, rng));
      b.push_back(ApInt::random(n, rng));
    }
    testutil::load_operands(sim, a, b, n);
    sim.run();
    for (std::size_t v = 0; v < 64; ++v) {
      const auto ev = model.evaluate(a[v], b[v]);
      ASSERT_EQ(testutil::read_bus(sim, "sum", n, v), ev.spec) << "vector " << v;
      ASSERT_EQ(((sim.output("cout") >> v) & 1) != 0, ev.spec_cout);
      ASSERT_EQ(((sim.output("err0") >> v) & 1) != 0, ev.err);
      ASSERT_EQ(testutil::read_bus(sim, "rec", n, v), ev.recovered);
      ASSERT_EQ(((sim.output("rec_cout") >> v) & 1) != 0, ev.recovered_cout);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Configurations, VlsaNetlistTest,
                         ::testing::Values(VlsaNetlistCase{16, 4}, VlsaNetlistCase{24, 5},
                                           VlsaNetlistCase{32, 8}, VlsaNetlistCase{33, 7},
                                           VlsaNetlistCase{64, 17}, VlsaNetlistCase{64, 12}),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param.width) + "_l" +
                                  std::to_string(info.param.chain);
                         });

TEST(VlsaNetlist, SpecOnlyNetlistMatches) {
  const VlsaConfig config{32, 6};
  const Netlist nl = netlist::optimize(build_vlsa_spec_netlist(config));
  const VlsaModel model(config);
  Simulator sim(nl);
  vlcsa::arith::BlockRng rng(77);
  std::vector<ApInt> a, b;
  for (int v = 0; v < 64; ++v) {
    a.push_back(ApInt::random(32, rng));
    b.push_back(ApInt::random(32, rng));
  }
  testutil::load_operands(sim, a, b, 32);
  sim.run();
  for (std::size_t v = 0; v < 64; ++v) {
    ASSERT_EQ(testutil::read_bus(sim, "sum", 32, v), model.evaluate(a[v], b[v]).spec);
  }
}

TEST(VlsaNetlist, DetectionIsSlowerThanSpeculation) {
  // The structural weakness of VLSA that VLCSA fixes (Ch. 7.4.2): its error
  // detection critical path exceeds its speculative path.
  for (const int n : {64, 128, 256}) {
    const int l = vlsa_published_chain_length(n);
    const auto nl = netlist::optimize(build_vlsa_netlist(VlsaConfig{n, l}));
    const auto timing = netlist::analyze_timing(nl);
    EXPECT_GT(timing.delay_of("detect"), timing.delay_of("spec")) << "n = " << n;
  }
}

TEST(VlsaNetlist, RecoveryIsSlowerThanSpeculation) {
  const auto nl = netlist::optimize(build_vlsa_netlist(VlsaConfig{128, 18}));
  const auto timing = netlist::analyze_timing(nl);
  EXPECT_GT(timing.delay_of("recovery"), timing.delay_of("spec"));
}

}  // namespace
}  // namespace vlcsa::spec
