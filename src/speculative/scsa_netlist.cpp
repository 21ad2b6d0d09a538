#include "speculative/scsa_netlist.hpp"

#include <string>
#include <vector>

namespace vlcsa::spec {

namespace {

using adders::ConditionalSums;
using adders::GP;
using netlist::Signal;

struct SpecDatapath {
  std::vector<Signal> a, b;
  std::vector<ConditionalSums> windows;  // per-window conditional results
  // S*,0 bank.
  std::vector<Signal> sum0;
  Signal cout0{};
  // S*,1 bank (only meaningful for variant 2, but cheap to form).
  std::vector<Signal> sum1;
  Signal cout1{};
};

/// Builds the window adders and both speculative banks over existing
/// operand signals.
SpecDatapath build_spec_datapath_over(Netlist& nl, const WindowLayout& layout,
                                      std::span<const Signal> a, std::span<const Signal> b,
                                      ScsaVariant variant, const ScsaNetlistOptions& opts) {
  SpecDatapath dp;
  dp.a.assign(a.begin(), a.end());
  dp.b.assign(b.begin(), b.end());
  const int n = layout.width();
  const int m = layout.count();
  dp.windows.reserve(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    const auto [pos, size] = layout.window(i);
    const std::span<const Signal> a_win{dp.a.data() + pos, static_cast<std::size_t>(size)};
    const std::span<const Signal> b_win{dp.b.data() + pos, static_cast<std::size_t>(size)};
    dp.windows.push_back(
        adders::conditional_window_sums(nl, a_win, b_win, opts.window_topology));
  }

  dp.sum0.resize(static_cast<std::size_t>(n));
  dp.sum1.resize(static_cast<std::size_t>(n));

  // Window 0 has carry-in 0: both banks take its sum0 directly.
  // Window i > 0: bank 0 selects with the previous window's group generate
  // (the truncated speculation, eq. 4.3); bank 1 selects with the previous
  // window's carry-out-assuming-carry-in-1 (Fig 6.6) — except window 1,
  // whose S*,1 select is window 0's *exact* carry-out G0 (DESIGN.md
  // "Substitutions and deviations").
  for (int i = 0; i < m; ++i) {
    const auto [pos, size] = layout.window(i);
    const ConditionalSums& win = dp.windows[static_cast<std::size_t>(i)];
    Signal sel0{}, sel1{};
    if (i > 0) {
      const ConditionalSums& prev = dp.windows[static_cast<std::size_t>(i - 1)];
      sel0 = prev.cout0;  // == prev group generate
      sel1 = (i == 1) ? prev.cout0 : prev.cout1;
    }
    for (int j = 0; j < size; ++j) {
      const std::size_t bit = static_cast<std::size_t>(pos + j);
      const Signal s0 = win.sum0[static_cast<std::size_t>(j)];
      const Signal s1 = win.sum1[static_cast<std::size_t>(j)];
      dp.sum0[bit] = (i == 0) ? s0 : nl.mux(sel0, s0, s1);
      dp.sum1[bit] = (i == 0) ? s0 : nl.mux(sel1, s0, s1);
    }
    dp.cout0 = (i == 0) ? win.cout0 : nl.mux(sel0, win.cout0, win.cout1);
    dp.cout1 = (i == 0) ? win.cout0 : nl.mux(sel1, win.cout0, win.cout1);
  }

  (void)variant;  // both banks are formed; variant decides which get ports
  return dp;
}

void add_spec_outputs(Netlist& nl, const SpecDatapath& dp, ScsaVariant variant) {
  for (std::size_t i = 0; i < dp.sum0.size(); ++i) {
    nl.add_output("sum[" + std::to_string(i) + "]", dp.sum0[i], kGroupSpec);
  }
  nl.add_output("cout", dp.cout0, kGroupSpec);
  if (variant == ScsaVariant::kScsa2) {
    for (std::size_t i = 0; i < dp.sum1.size(); ++i) {
      nl.add_output("sum1[" + std::to_string(i) + "]", dp.sum1[i], kGroupSpec);
    }
    nl.add_output("cout1", dp.cout1, kGroupSpec);
  }
}

/// ERR0 (Fig 5.1): OR over window pairs of P(i+1) & G(i).  The OR tree is
/// DeMorgan-paired so detection stays no slower than speculation — the
/// property Ch. 5.1 builds the whole design on.
Signal build_err0(Netlist& nl, const SpecDatapath& dp) {
  std::vector<Signal> terms;
  for (std::size_t i = 0; i + 1 < dp.windows.size(); ++i) {
    terms.push_back(nl.and_(dp.windows[i + 1].group_p, dp.windows[i].group_g_light));
  }
  return nl.or_reduce_fast(terms);
}

/// ERR1 (Fig 6.7): OR over window pairs of ~P(i+1) & P(i) — a propagate run
/// that dies before reaching the MSB window.  The i = 0 term is omitted
/// because window 1's S*,1 select is exact (see build_spec_datapath).
Signal build_err1(Netlist& nl, const SpecDatapath& dp) {
  std::vector<Signal> terms;
  for (std::size_t i = 1; i + 1 < dp.windows.size(); ++i) {
    terms.push_back(nl.and_(nl.not_(dp.windows[i + 1].group_p), dp.windows[i].group_p));
  }
  return nl.or_reduce_fast(terms);
}

/// Error recovery (Fig 5.2): a ceil(n/k)-bit prefix adder over the window
/// group (G, P) signals yields the true carry into every window; the
/// already-computed conditional sums are then re-selected.
struct RecoverySignals {
  std::vector<Signal> sum;
  Signal cout{};
};

RecoverySignals build_recovery_signals(Netlist& nl, const WindowLayout& layout,
                                       const SpecDatapath& dp, PrefixTopology topology) {
  const int m = layout.count();
  std::vector<GP> leaves;
  leaves.reserve(static_cast<std::size_t>(m));
  for (const auto& win : dp.windows) leaves.push_back(GP{win.group_g, win.group_p});
  const std::vector<GP> prefix = adders::build_prefix_network(nl, std::move(leaves), topology);

  RecoverySignals rec;
  rec.sum.resize(static_cast<std::size_t>(layout.width()));
  for (int i = 0; i < m; ++i) {
    const auto [pos, size] = layout.window(i);
    const ConditionalSums& win = dp.windows[static_cast<std::size_t>(i)];
    const Signal carry_in = (i == 0) ? Signal{} : prefix[static_cast<std::size_t>(i - 1)].g;
    for (int j = 0; j < size; ++j) {
      const Signal s0 = win.sum0[static_cast<std::size_t>(j)];
      const Signal s1 = win.sum1[static_cast<std::size_t>(j)];
      rec.sum[static_cast<std::size_t>(pos + j)] =
          (i == 0) ? nl.buf(s0) : nl.mux(carry_in, s0, s1);
    }
  }
  rec.cout = prefix[static_cast<std::size_t>(m - 1)].g;
  return rec;
}

/// Operand inputs a[i]/b[i].
std::pair<std::vector<Signal>, std::vector<Signal>> make_operand_inputs(Netlist& nl, int n) {
  std::vector<Signal> a, b;
  a.reserve(static_cast<std::size_t>(n));
  b.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) a.push_back(nl.add_input("a[" + std::to_string(i) + "]"));
  for (int i = 0; i < n; ++i) b.push_back(nl.add_input("b[" + std::to_string(i) + "]"));
  return {std::move(a), std::move(b)};
}

}  // namespace

Netlist build_scsa_netlist(const ScsaConfig& config, ScsaVariant variant,
                           const ScsaNetlistOptions& opts) {
  const WindowLayout layout(config.width, config.window);
  Netlist nl(std::string(to_string(variant)) + "_" + std::to_string(config.width) + "_k" +
             std::to_string(config.window));
  const auto [a, b] = make_operand_inputs(nl, config.width);
  const SpecDatapath dp = build_spec_datapath_over(nl, layout, a, b, variant, opts);
  add_spec_outputs(nl, dp, variant);
  return nl;
}

VlcsaPorts build_vlcsa_on_signals(Netlist& nl, std::span<const Signal> a,
                                  std::span<const Signal> b, int window,
                                  ScsaVariant variant, const ScsaNetlistOptions& opts) {
  const WindowLayout layout(static_cast<int>(a.size()), window);
  const SpecDatapath dp = build_spec_datapath_over(nl, layout, a, b, variant, opts);

  VlcsaPorts ports;
  ports.sum0 = dp.sum0;
  ports.cout0 = dp.cout0;
  ports.sum1 = dp.sum1;
  ports.cout1 = dp.cout1;
  ports.err0 = build_err0(nl, dp);
  if (variant == ScsaVariant::kScsa2) {
    ports.err1 = build_err1(nl, dp);
    ports.stall = nl.and_(ports.err0, ports.err1);
  } else {
    ports.err1 = nl.constant(false);
    ports.stall = ports.err0;
  }
  const RecoverySignals rec = build_recovery_signals(nl, layout, dp, opts.recovery_topology);
  ports.recovered = rec.sum;
  ports.recovered_cout = rec.cout;
  return ports;
}

Netlist build_vlcsa_netlist(const ScsaConfig& config, ScsaVariant variant,
                            const ScsaNetlistOptions& opts) {
  const std::string base = variant == ScsaVariant::kScsa1 ? "vlcsa1" : "vlcsa2";
  Netlist nl(base + "_" + std::to_string(config.width) + "_k" +
             std::to_string(config.window));
  const auto [a, b] = make_operand_inputs(nl, config.width);
  const VlcsaPorts ports = build_vlcsa_on_signals(nl, a, b, config.window, variant, opts);

  for (std::size_t i = 0; i < ports.sum0.size(); ++i) {
    nl.add_output("sum[" + std::to_string(i) + "]", ports.sum0[i], kGroupSpec);
  }
  nl.add_output("cout", ports.cout0, kGroupSpec);
  if (variant == ScsaVariant::kScsa2) {
    for (std::size_t i = 0; i < ports.sum1.size(); ++i) {
      nl.add_output("sum1[" + std::to_string(i) + "]", ports.sum1[i], kGroupSpec);
    }
    nl.add_output("cout1", ports.cout1, kGroupSpec);
  }
  nl.add_output("err0", ports.err0, kGroupDetect);
  if (variant == ScsaVariant::kScsa2) nl.add_output("err1", ports.err1, kGroupDetect);
  nl.add_output("stall", ports.stall, kGroupDetect);
  nl.add_output("valid", nl.not_(ports.stall), kGroupDetect);
  for (std::size_t i = 0; i < ports.recovered.size(); ++i) {
    nl.add_output("rec[" + std::to_string(i) + "]", ports.recovered[i], kGroupRecovery);
  }
  nl.add_output("rec_cout", ports.recovered_cout, kGroupRecovery);
  return nl;
}

}  // namespace vlcsa::spec
