#include "common/equivalence.hpp"

#include <gtest/gtest.h>

#include <random>

#include "adders/adders.hpp"
#include "netlist/opt.hpp"
#include "netlist/simulator.hpp"

namespace vlcsa::netlist {
namespace {

TEST(Equivalence, IdenticalNetlistsAreEquivalent) {
  const auto nl = adders::build_adder_netlist(adders::AdderKind::kRipple, 8);
  const auto result = prove_equivalent(nl, nl);
  EXPECT_TRUE(result.equivalent());
  EXPECT_EQ(result.outputs_compared, 9u);  // 8 sums + cout
}

class AdderEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<adders::AdderKind, int>> {};

TEST_P(AdderEquivalenceTest, FormallyEqualsRipple) {
  const auto [kind, width] = GetParam();
  const auto reference = adders::build_adder_netlist(adders::AdderKind::kRipple, width);
  const auto candidate = adders::build_adder_netlist(kind, width);
  const auto result = prove_equivalent(candidate, reference);
  EXPECT_TRUE(result.equivalent())
      << to_string(kind) << " width " << width << " differs at " << result.mismatch_output;
}

TEST_P(AdderEquivalenceTest, OptimizedFormallyEqualsUnoptimized) {
  const auto [kind, width] = GetParam();
  const auto raw = adders::build_adder_netlist(kind, width);
  const auto result = prove_equivalent(optimize(raw), raw);
  EXPECT_TRUE(result.equivalent()) << to_string(kind) << " width " << width;
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndWidths, AdderEquivalenceTest,
    ::testing::Combine(::testing::Values(adders::AdderKind::kCarrySelect,
                                         adders::AdderKind::kCarrySkip,
                                         adders::AdderKind::kKoggeStone,
                                         adders::AdderKind::kBrentKung,
                                         adders::AdderKind::kSklansky,
                                         adders::AdderKind::kHanCarlson,
                                         adders::AdderKind::kHybridKsCarrySelect),
                       ::testing::Values(7, 16, 32, 64)),
    [](const auto& info) {
      std::string name = to_string(std::get<0>(info.param));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_w" + std::to_string(std::get<1>(info.param));
    });

TEST(Equivalence, DetectsInjectedBug) {
  // Same half adder, but the "buggy" one swaps XOR for OR on the sum.
  Netlist good("g"), bad("b");
  {
    const Signal a = good.add_input("a");
    const Signal b2 = good.add_input("b");
    good.add_output("s", good.xor_(a, b2));
  }
  {
    const Signal a = bad.add_input("a");
    const Signal b2 = bad.add_input("b");
    bad.add_output("s", bad.or_(a, b2));
  }
  const auto result = prove_equivalent(good, bad);
  ASSERT_EQ(result.verdict, Verdict::kNotEquivalent);
  EXPECT_EQ(result.mismatch_output, "s");
  // The counterexample must actually distinguish the two netlists.
  ASSERT_EQ(result.counterexample.size(), 2u);
  Simulator sg(good), sb(bad);
  for (const auto& [name, value] : result.counterexample) {
    sg.set_input(name, value ? ~std::uint64_t{0} : 0);
    sb.set_input(name, value ? ~std::uint64_t{0} : 0);
  }
  sg.run();
  sb.run();
  EXPECT_NE(sg.output("s") & 1, sb.output("s") & 1);
}

TEST(Equivalence, CounterexampleOnWideAdder) {
  // A 16-bit adder with one sum bit sabotaged: the witness must set up the
  // exact carry pattern that exposes it.
  auto good = adders::build_adder_netlist(adders::AdderKind::kKoggeStone, 16);
  Netlist bad = adders::build_adder_netlist(adders::AdderKind::kKoggeStone, 16);
  // Rebuild "bad" with sum[7] inverted.
  Netlist sabotaged("bad");
  {
    std::vector<Signal> map(bad.num_gates());
    std::size_t in_idx = 0;
    for (std::uint32_t i = 0; i < bad.num_gates(); ++i) {
      const Gate& g = bad.gates()[i];
      if (g.kind == GateKind::kInput) {
        map[i] = sabotaged.add_input(bad.inputs()[in_idx++].name);
      } else if (g.kind == GateKind::kConst0) {
        map[i] = sabotaged.constant(false);
      } else if (g.kind == GateKind::kConst1) {
        map[i] = sabotaged.constant(true);
      } else {
        map[i] = sabotaged.make_gate(g.kind, g.fanin[0].valid() ? map[g.fanin[0].id] : Signal{},
                                     g.fanin[1].valid() ? map[g.fanin[1].id] : Signal{},
                                     g.fanin[2].valid() ? map[g.fanin[2].id] : Signal{});
      }
    }
    for (const auto& port : bad.outputs()) {
      const Signal s = port.name == "sum[7]" ? sabotaged.not_(map[port.signal.id])
                                             : map[port.signal.id];
      sabotaged.add_output(port.name, s);
    }
  }
  const auto result = prove_equivalent(sabotaged, good);
  ASSERT_EQ(result.verdict, Verdict::kNotEquivalent);
  EXPECT_EQ(result.mismatch_output, "sum[7]");
}

TEST(Equivalence, OutputMapComparesRenamedBanks) {
  // y2 == not(not(y)) under a name map.
  Netlist a("a"), b("b");
  {
    const Signal x = a.add_input("x");
    a.add_output("inv", a.not_(x));
  }
  {
    const Signal x = b.add_input("x");
    b.add_output("negated", b.not_(b.not_(b.not_(x))));
  }
  const auto result = prove_equivalent(a, b, {{"inv", "negated"}});
  EXPECT_TRUE(result.equivalent());
  EXPECT_EQ(result.outputs_compared, 1u);
}

TEST(Equivalence, MismatchedInputSetsThrow) {
  Netlist a("a"), b("b");
  a.add_output("y", a.add_input("x"));
  b.add_output("y", b.add_input("z"));
  EXPECT_THROW((void)prove_equivalent(a, b), std::invalid_argument);
}

TEST(Equivalence, NoComparableOutputsThrow) {
  Netlist a("a"), b("b");
  a.add_output("p", a.add_input("x"));
  b.add_output("q", b.add_input("x"));
  EXPECT_THROW((void)prove_equivalent(a, b), std::invalid_argument);
}

TEST(Equivalence, NodeLimitReportsResourceVerdict) {
  // A 64-bit multiplier-free stress: adders stay small, so force the limit
  // tiny to exercise the path.
  const auto nl = adders::build_adder_netlist(adders::AdderKind::kKoggeStone, 32);
  const auto result = prove_equivalent(nl, nl, {}, /*node_limit=*/16);
  EXPECT_EQ(result.verdict, Verdict::kResourceLimit);
}

TEST(Equivalence, RandomOptimizedNetlistsProveEquivalent) {
  std::mt19937_64 rng(77);
  for (int trial = 0; trial < 6; ++trial) {
    Netlist nl;
    std::vector<Signal> pool;
    for (int i = 0; i < 8; ++i) pool.push_back(nl.add_input("i" + std::to_string(i)));
    pool.push_back(nl.constant(false));
    pool.push_back(nl.constant(true));
    for (int i = 0; i < 120; ++i) {
      const auto pick = [&] { return pool[rng() % pool.size()]; };
      switch (rng() % 6) {
        case 0: pool.push_back(nl.and_(pick(), pick())); break;
        case 1: pool.push_back(nl.or_(pick(), pick())); break;
        case 2: pool.push_back(nl.xor_(pick(), pick())); break;
        case 3: pool.push_back(nl.nand_(pick(), pick())); break;
        case 4: pool.push_back(nl.not_(pick())); break;
        default: pool.push_back(nl.mux(pick(), pick(), pick())); break;
      }
    }
    for (int o = 0; o < 4; ++o) {
      nl.add_output("y" + std::to_string(o), pool[pool.size() - 1 - static_cast<std::size_t>(o)]);
    }
    const auto result = prove_equivalent(optimize(nl), nl);
    EXPECT_TRUE(result.equivalent()) << "trial " << trial;
  }
}

}  // namespace
}  // namespace vlcsa::netlist
