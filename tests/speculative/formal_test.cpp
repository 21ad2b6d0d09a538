// Formal (BDD) proofs over the speculative structures — stronger than any
// sampling: these hold over the entire input space.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "adders/adders.hpp"
#include "common/equivalence.hpp"
#include "netlist/opt.hpp"
#include "speculative/error_model.hpp"
#include "speculative/scsa_netlist.hpp"
#include "speculative/vlsa.hpp"

namespace vlcsa::spec {
namespace {

using netlist::prove_equivalent;

/// rec[i] -> sum[i], rec_cout -> cout.
std::map<std::string, std::string> recovery_to_sum_map(int width) {
  std::map<std::string, std::string> map;
  for (int i = 0; i < width; ++i) {
    map["rec[" + std::to_string(i) + "]"] = "sum[" + std::to_string(i) + "]";
  }
  map["rec_cout"] = "cout";
  return map;
}

struct FormalCase {
  int width;
  int window;
  ScsaVariant variant;
};

class VlcsaFormalTest : public ::testing::TestWithParam<FormalCase> {};

TEST_P(VlcsaFormalTest, RecoveryBankIsFormallyAnExactAdder) {
  // The reliability guarantee as a theorem: for EVERY input, the recovery
  // outputs equal a ripple adder's.  Proven, not sampled.
  const auto [n, k, variant] = GetParam();
  const auto vlcsa = build_vlcsa_netlist(ScsaConfig{n, k}, variant);
  const auto reference = adders::build_adder_netlist(adders::AdderKind::kRipple, n);
  const auto result = prove_equivalent(vlcsa, reference, recovery_to_sum_map(n));
  EXPECT_TRUE(result.equivalent())
      << "recovery differs at " << result.mismatch_output << " (n=" << n << ", k=" << k << ")";
  EXPECT_EQ(result.outputs_compared, static_cast<std::size_t>(n) + 1);
}

TEST_P(VlcsaFormalTest, OptimizerPreservesTheWholeVlcsa) {
  const auto [n, k, variant] = GetParam();
  const auto raw = build_vlcsa_netlist(ScsaConfig{n, k}, variant);
  const auto result = prove_equivalent(netlist::optimize(raw), raw);
  EXPECT_TRUE(result.equivalent()) << "optimizer broke " << result.mismatch_output;
}

INSTANTIATE_TEST_SUITE_P(Configurations, VlcsaFormalTest,
                         ::testing::Values(FormalCase{16, 4, ScsaVariant::kScsa1},
                                           FormalCase{16, 4, ScsaVariant::kScsa2},
                                           FormalCase{24, 7, ScsaVariant::kScsa2},
                                           FormalCase{32, 8, ScsaVariant::kScsa1},
                                           FormalCase{64, 14, ScsaVariant::kScsa1},
                                           FormalCase{64, 14, ScsaVariant::kScsa2}),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param.width) + "_k" +
                                  std::to_string(info.param.window) + "_" +
                                  to_string(info.param.variant);
                         });

TEST(VlsaFormal, RecoveryEqualsExactAdder) {
  const int n = 32, l = 8;
  const auto vlsa = build_vlsa_netlist(VlsaConfig{n, l});
  const auto reference = adders::build_adder_netlist(adders::AdderKind::kRipple, n);
  const auto result = prove_equivalent(vlsa, reference, recovery_to_sum_map(n));
  EXPECT_TRUE(result.equivalent()) << result.mismatch_output;
}

TEST(ScsaFormal, SpeculativeBankIsNotAnExactAdder) {
  // Sanity for the whole method: the speculative outputs must NOT be
  // formally equivalent to an adder (they err on some input), and the BDD
  // check must produce a working counterexample.
  const int n = 24, k = 6;
  const auto scsa = build_scsa_netlist(ScsaConfig{n, k}, ScsaVariant::kScsa1);
  const auto reference = adders::build_adder_netlist(adders::AdderKind::kRipple, n);
  const auto result = prove_equivalent(scsa, reference);
  ASSERT_EQ(result.verdict, netlist::Verdict::kNotEquivalent);
  // The witness must be a genuine speculation error per the behavioral model.
  arith::ApInt a(n), b(n);
  for (const auto& [name, value] : result.counterexample) {
    const bool is_a = name[0] == 'a';
    const int bit = std::stoi(name.substr(2, name.size() - 3));
    (is_a ? a : b).set_bit(bit, value);
  }
  const ScsaModel model(ScsaConfig{n, k});
  EXPECT_FALSE(model.evaluate(a, b).spec0_correct());
}

TEST(ScsaFormal, ExhaustiveTinyWidthBehavioralAgreement) {
  // Exhaustive truth-table check at n = 6, k = 2: every one of the 2^12
  // operand pairs, behavioral model vs direct definition of every signal.
  const int n = 6, k = 2;
  const ScsaModel model(ScsaConfig{n, k});
  for (unsigned ua = 0; ua < 64; ++ua) {
    for (unsigned ub = 0; ub < 64; ++ub) {
      const auto a = arith::ApInt::from_u64(n, ua);
      const auto b = arith::ApInt::from_u64(n, ub);
      const auto ev = model.evaluate(a, b);
      ASSERT_EQ(ev.exact.to_u64(), (ua + ub) & 0x3fu);
      ASSERT_EQ(ev.recovered, ev.exact);
      if (!ev.spec0_correct()) {
        ASSERT_TRUE(ev.err0);
      }
      if (ev.err0 && !ev.err1) {
        ASSERT_TRUE(ev.spec1_correct());
      }
      if (!ev.vlcsa2_stall()) {
        ASSERT_TRUE(ev.vlcsa2_selected_correct());
      }
    }
  }
}

struct TinyWidthCase {
  int n;
  int window;  // SCSA window size k or VLSA chain length l
};

std::vector<TinyWidthCase> tiny_width_cases(const std::vector<int>& widths, int first_window) {
  std::vector<TinyWidthCase> cases;
  for (const int n : widths) {
    for (int window = first_window; window <= n; ++window) cases.push_back({n, window});
  }
  return cases;
}

std::string tiny_width_name(const ::testing::TestParamInfo<TinyWidthCase>& info) {
  return "n" + std::to_string(info.param.n) + "_w" + std::to_string(info.param.window);
}

/// Exhaustive enumeration of all 2^2n operand pairs: the fraction for which
/// `hit(a, b)` holds.
template <typename Hit>
double exhaustive_rate(int n, Hit hit) {
  const unsigned values = 1u << n;
  std::uint64_t hits = 0;
  for (unsigned ua = 0; ua < values; ++ua) {
    for (unsigned ub = 0; ub < values; ++ub) {
      hits += hit(arith::ApInt::from_u64(n, ua), arith::ApInt::from_u64(n, ub)) ? 1 : 0;
    }
  }
  return static_cast<double>(hits) / (static_cast<double>(values) * values);
}

class ScsaTinyWidth : public ::testing::TestWithParam<TinyWidthCase> {};

TEST_P(ScsaTinyWidth, ExhaustiveNominalRateMatchesDp) {
  const auto [n, k] = GetParam();
  const ScsaModel model(ScsaConfig{n, k});
  const double exhaustive = exhaustive_rate(
      n, [&](const arith::ApInt& a, const arith::ApInt& b) { return model.evaluate(a, b).err0; });
  EXPECT_NEAR(exhaustive, scsa_exact_error_rate(n, k), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(EveryWindow, ScsaTinyWidth,
                         ::testing::ValuesIn(tiny_width_cases({4, 6, 8}, 2)), tiny_width_name);

class VlsaTinyWidth : public ::testing::TestWithParam<TinyWidthCase> {};

TEST_P(VlsaTinyWidth, ExhaustiveActualRateMatchesDp) {
  const auto [n, l] = GetParam();
  const VlsaModel model(VlsaConfig{n, l});
  const double exhaustive = exhaustive_rate(n, [&](const arith::ApInt& a, const arith::ApInt& b) {
    return !model.evaluate(a, b).spec_correct();
  });
  EXPECT_NEAR(exhaustive, vlsa_exact_error_rate(n, l), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(EveryChainLength, VlsaTinyWidth,
                         ::testing::ValuesIn(tiny_width_cases({8}, 1)), tiny_width_name);

}  // namespace
}  // namespace vlcsa::spec
