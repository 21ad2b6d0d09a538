#include "speculative/scsa.hpp"

#include <stdexcept>

namespace vlcsa::spec {

const char* to_string(ScsaVariant variant) {
  switch (variant) {
    case ScsaVariant::kScsa1: return "scsa1";
    case ScsaVariant::kScsa2: return "scsa2";
  }
  return "?";
}

ScsaModel::ScsaModel(ScsaConfig config)
    : config_(config), layout_(config.width, config.window) {
  for (const Window& w : layout_.windows()) window_sizes_.push_back(w.size);
}

ScsaEvaluation ScsaModel::evaluate(const ApInt& a, const ApInt& b) const {
  if (a.width() != config_.width || b.width() != config_.width) {
    throw std::invalid_argument("ScsaModel: operand width mismatch");
  }
  const int m = layout_.count();

  ScsaEvaluation ev;
  ev.spec0 = ApInt(config_.width);
  ev.spec1 = ApInt(config_.width);
  ev.recovered = ApInt(config_.width);
  ev.window_g.resize(static_cast<std::size_t>(m));
  ev.window_p.resize(static_cast<std::size_t>(m));

  const auto exact = ApInt::add(a, b);
  ev.exact = exact.sum;
  ev.exact_cout = exact.carry_out;

  // Per-window conditional sums and group signals, in machine words.
  std::vector<std::uint64_t> sum0(static_cast<std::size_t>(m));
  std::vector<std::uint64_t> sum1(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    const auto [pos, size] = layout_.window(i);
    const std::uint64_t aw = a.extract(pos, size);
    const std::uint64_t bw = b.extract(pos, size);
    const std::uint64_t mask =
        size >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << size) - 1);
    const std::uint64_t raw = aw + bw;  // size <= 63: no machine overflow
    sum0[static_cast<std::size_t>(i)] = raw & mask;
    sum1[static_cast<std::size_t>(i)] = (raw + 1) & mask;
    ev.window_g[static_cast<std::size_t>(i)] = ((raw >> size) & 1) != 0;
    ev.window_p[static_cast<std::size_t>(i)] = (aw ^ bw) == mask;
  }

  // Speculative carries: S*,0 uses the previous window's group generate;
  // S*,1 uses the previous window's carry-out-assuming-carry-in-1 (G | P).
  // Exception (DESIGN.md "Substitutions and deviations"): window 0's
  // carry-in is the known constant 0, so its carry-out G0 is *exact* —
  // window 1's S*,1 select uses it directly instead of G0 | P0.  Without
  // this, a small remainder-sized first window (e.g. 2 bits at n = 512,
  // k = 17) makes P(window-0 propagates) large and VLCSA 2 stalls on
  // ~ERR0/4 of all inputs instead of ~0.01%.
  // Exact recovery threads the true window carries (Fig 5.2's prefix adder).
  bool carry0 = false, carry1 = false, carry_exact = false;
  for (int i = 0; i < m; ++i) {
    const auto [pos, size] = layout_.window(i);
    const std::size_t w = static_cast<std::size_t>(i);
    ev.spec0.deposit(pos, size, carry0 ? sum1[w] : sum0[w]);
    ev.spec1.deposit(pos, size, carry1 ? sum1[w] : sum0[w]);
    ev.recovered.deposit(pos, size, carry_exact ? sum1[w] : sum0[w]);
    const bool g = ev.window_g[w];
    const bool p = ev.window_p[w];
    ev.spec0_cout = g || (p && carry0);
    ev.spec1_cout = g || (p && carry1);
    ev.recovered_cout = g || (p && carry_exact);
    carry0 = g;
    carry1 = (i == 0) ? g : (g || p);
    carry_exact = g || (p && carry_exact);
  }

  // Detection (Figs 5.1 and 6.7).  ERR1 starts at window pair (1, 2): the
  // i = 0 term is unnecessary once window 1's S*,1 select is exact.
  for (int i = 0; i + 1 < m; ++i) {
    const std::size_t w = static_cast<std::size_t>(i);
    ev.err0 = ev.err0 || (ev.window_g[w] && ev.window_p[w + 1]);
    if (i >= 1) ev.err1 = ev.err1 || (ev.window_p[w] && !ev.window_p[w + 1]);
  }
  return ev;
}

void ScsaModel::evaluate_batch(const BitSlicedBatch& batch, ScsaBatchEvaluation& out) const {
  if (batch.width() != config_.width) {
    throw std::invalid_argument("ScsaModel: batch width mismatch");
  }
  const std::size_t lw = static_cast<std::size_t>(batch.lane_words());
  for (auto* mask : {&out.spec0_wrong, &out.spec1_wrong, &out.err0, &out.err1}) mask->resize(lw);
  arith::planeops::scsa_window_sweep(
      batch.a(), batch.b(), batch.lane_words(), window_sizes_.data(), layout_.count(),
      {out.spec0_wrong.data(), out.spec1_wrong.data(), out.err0.data(), out.err1.data()});
}

}  // namespace vlcsa::spec
