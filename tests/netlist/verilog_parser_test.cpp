#include "common/verilog_parser.hpp"

#include <gtest/gtest.h>

#include "adders/adders.hpp"
#include "netlist/equivalence.hpp"
#include "netlist/opt.hpp"
#include "netlist/verilog.hpp"
#include "speculative/scsa_netlist.hpp"
#include "speculative/vlsa.hpp"

namespace vlcsa::netlist {
namespace {

TEST(VerilogParser, ParsesMinimalModule) {
  const std::string text = R"(
module tiny (a, b, y);
  input a;
  input b;
  output y;

  wire n2;
  assign n2 = a & b;
  assign y = n2;
endmodule
)";
  const Netlist nl = parse_verilog(text);
  EXPECT_EQ(nl.name(), "tiny");
  ASSERT_EQ(nl.inputs().size(), 2u);
  ASSERT_EQ(nl.outputs().size(), 1u);
  // "assign y = n2" becomes a buffer whose fanin is the AND gate.
  const Gate& out = nl.gate(nl.outputs()[0].signal);
  ASSERT_EQ(out.kind, GateKind::kBuf);
  EXPECT_EQ(nl.gate(out.fanin[0]).kind, GateKind::kAnd2);
}

TEST(VerilogParser, ParsesVectorsConstantsAndMux) {
  const std::string text = R"(
module m (a, s, y);
  input [1:0] a;
  input s;
  output [1:0] y;
  wire n4;
  wire n5;
  assign n4 = s ? a[1] : a[0];
  assign n5 = ~(a[0] ^ 1'b1);
  assign y[0] = n4;
  assign y[1] = n5;
endmodule
)";
  const Netlist nl = parse_verilog(text);
  ASSERT_EQ(nl.inputs().size(), 3u);  // a[0], a[1], s
  ASSERT_EQ(nl.outputs().size(), 2u);
  EXPECT_TRUE(nl.find_input("a[1]").has_value());
  EXPECT_TRUE(nl.find_output("y[1]").has_value());
}

TEST(VerilogParser, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_verilog("assign x = 1;"), std::invalid_argument);
  EXPECT_THROW((void)parse_verilog("module m (a);\n  input a;\n  frobnicate;\nendmodule\n"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_verilog("module m (y);\n  output y;\nendmodule\n"),
               std::invalid_argument);  // output never assigned
  EXPECT_THROW(
      (void)parse_verilog("module m (a, y);\n  input a;\n  output y;\n  assign y = q;\nendmodule\n"),
      std::invalid_argument);  // undefined net
  EXPECT_THROW((void)parse_verilog("module m (a);\n  input a;\n"), std::invalid_argument);
}

struct RoundTripCase {
  std::string name;
  Netlist netlist;
};

class VerilogRoundTripTest : public ::testing::Test {};

/// Emit -> parse -> formally prove the parsed module equals the original.
void check_round_trip(const Netlist& original) {
  const std::string text = to_verilog(original);
  const Netlist parsed = parse_verilog(text);
  EXPECT_EQ(parsed.inputs().size(), original.inputs().size());
  EXPECT_EQ(parsed.outputs().size(), original.outputs().size());
  const auto result = prove_equivalent(parsed, original);
  EXPECT_TRUE(result.equivalent())
      << original.name() << " round-trip differs at " << result.mismatch_output;
}

TEST_F(VerilogRoundTripTest, KoggeStone32) {
  check_round_trip(adders::build_adder_netlist(adders::AdderKind::kKoggeStone, 32));
}

TEST_F(VerilogRoundTripTest, CarrySelect24) {
  check_round_trip(adders::build_adder_netlist(adders::AdderKind::kCarrySelect, 24));
}

TEST_F(VerilogRoundTripTest, OptimizedBrentKung16WithCin) {
  adders::AdderOptions opts;
  opts.with_cin = true;
  check_round_trip(optimize(adders::build_adder_netlist(adders::AdderKind::kBrentKung, 16, opts)));
}

TEST_F(VerilogRoundTripTest, Vlcsa2Netlist) {
  check_round_trip(
      spec::build_vlcsa_netlist(spec::ScsaConfig{32, 8}, spec::ScsaVariant::kScsa2));
}

TEST_F(VerilogRoundTripTest, VlsaNetlist) {
  check_round_trip(spec::build_vlsa_netlist(spec::VlsaConfig{24, 6}));
}

TEST(VerilogParser, RoundTripPreservesModuleName) {
  const auto nl = adders::build_adder_netlist(adders::AdderKind::kRipple, 4);
  const auto parsed = parse_verilog(to_verilog(nl));
  EXPECT_EQ(parsed.name(), "ripple_4");
}

}  // namespace
}  // namespace vlcsa::netlist
