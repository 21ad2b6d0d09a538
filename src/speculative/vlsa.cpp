#include "speculative/vlsa.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

namespace vlcsa::spec {

namespace {

/// Sliding all-propagate mask: bit j of the result is 1 iff p[j-len+1 .. j]
/// are all 1 (bits below position len-1 are 0 by construction: shifting in
/// zeros from the bottom kills windows that would overhang bit 0).
ApInt propagate_runs(const ApInt& p, int len) {
  ApInt runs = p;
  int covered = 1;
  while (covered < len) {
    const int step = std::min(covered, len - covered);
    runs = runs & runs.shl(step);  // (x << s) bit j = x bit j-s: extend downward
    covered += step;
  }
  return runs;
}

}  // namespace

VlsaModel::VlsaModel(VlsaConfig config) : config_(config) {
  if (config_.width < 1) throw std::invalid_argument("VLSA width must be >= 1");
  if (config_.chain < 1 || config_.chain > config_.width) {
    throw std::invalid_argument("VLSA chain length must be in [1, width]");
  }
}

VlsaEvaluation VlsaModel::evaluate(const ApInt& a, const ApInt& b) const {
  if (a.width() != config_.width || b.width() != config_.width) {
    throw std::invalid_argument("VlsaModel: operand width mismatch");
  }
  const int n = config_.width;
  const int l = config_.chain;

  VlsaEvaluation ev;
  const auto exact = ApInt::add(a, b);
  ev.exact = exact.sum;
  ev.exact_cout = exact.carry_out;
  ev.recovered = ev.exact;  // recovery completes the prefix tree: exact
  ev.recovered_cout = ev.exact_cout;

  const ApInt p = a ^ b;

  // The speculative carry out of bit j (G over the l bits ending at j)
  // differs from the exact carry exactly when that window is all-propagate
  // and the true carry entering the window is 1 (see error_model.hpp).
  // Word-parallel reconstruction:
  //   carry-into(j) = exact_sum(j) ^ p(j)
  //   runs(j)       = window [j-l+1, j] all-propagate
  //   carry-out-of(j-l) = carry-into(j-l+1)
  const ApInt carry_into = ev.exact ^ p;                  // bit j: carry into bit j
  const ApInt runs = propagate_runs(p, l);                // bit j: window ending at j
  // diff_at_carry(j) = spec carry-out(j) != exact carry-out(j):
  //   runs(j) & carry-into(j - l + 1)  ==  runs(j) & (carry_into << (l-1))(j)
  const ApInt diff_at_carry = runs & carry_into.shl(l - 1);

  // Sum bit i uses the carry out of bit i-1, so it flips when
  // diff_at_carry(i-1); bit 0 never flips (carry-in is 0).
  ev.spec = ev.exact ^ diff_at_carry.shl(1);
  // The reported carry-out uses diff_at_carry(n-1).
  ev.spec_cout = ev.exact_cout ^ diff_at_carry.bit(n - 1);

  ev.err = !runs.is_zero();
  return ev;
}

void VlsaModel::evaluate_batch(const arith::BitSlicedBatch& batch,
                               VlsaBatchEvaluation& out) const {
  if (batch.width() != config_.width) {
    throw std::invalid_argument("VlsaModel: batch width mismatch");
  }
  const int n = config_.width;
  const int l = config_.chain;
  const int lw = batch.lane_words();
  const std::size_t lws = static_cast<std::size_t>(lw);
  const std::size_t planes = static_cast<std::size_t>(n) * lws;

  out.g.resize(planes);
  out.p.resize(planes);
  out.carry.resize(planes);
  out.pp.resize(planes);
  arith::planeops::bulk_gp(batch.a(), batch.b(), out.g.data(), out.p.data(), planes);
  // Exact per-bit carries via the word-level Kogge-Stone prefix; carry[j] is
  // the carry *out* of bit j, so the carry *into* bit j is carry[j - 1].
  arith::planeops::kogge_stone(out.g.data(), out.p.data(), n, lw, out.carry.data(),
                               out.pp.data());

  // Sliding all-propagate mask over the planes, same doubling scheme as the
  // scalar propagate_runs(): runs[j] = all of p[j-l+1 .. j], zero when the
  // window would overhang bit 0.  Each doubling step is the plane-kernel
  // shifted_self_and (groupwise runs[j] &= runs[j-step], zero-fill below).
  out.runs = out.p;
  int covered = 1;
  while (covered < l) {
    const int step = std::min(covered, l - covered);
    arith::planeops::shifted_self_and(out.runs.data(), n, lw, step);
    covered += step;
  }

  // The speculative carry out of bit j differs from the exact one iff the
  // window ending at j is all-propagate and the true carry entering it is 1
  // (carry into bit j-l+1).  Any such difference flips a sum bit (j <= n-2)
  // or the reported carry-out (j = n-1), so spec_wrong is their OR.
  out.spec_wrong.assign(lws, 0);
  out.err.assign(lws, 0);
  for (int j = l - 1; j < n; ++j) {
    const std::size_t run_idx = static_cast<std::size_t>(j) * lws;
    const int into = j - l + 1;  // window's lowest bit
    for (std::size_t w = 0; w < lws; ++w) {
      const std::uint64_t run = out.runs[run_idx + w];
      const std::uint64_t carry_in =
          into == 0 ? 0 : out.carry[static_cast<std::size_t>(into - 1) * lws + w];
      out.spec_wrong[w] |= run & carry_in;
      out.err[w] |= run;
    }
  }
}

// ---- netlist generator ------------------------------------------------------

namespace {

using adders::GP;
using netlist::Netlist;
using netlist::Signal;

struct VlsaBuild {
  std::vector<Signal> p_bit;
  std::vector<std::vector<GP>> levels;  // levels[t][i] covers [max(0, i-2^t+1), i]
  int top_level = 0;                    // T with 2^T >= l
};

/// Composite (G,P) over the exact segment [j-len+1, j]; requires len <= j+1
/// and len <= 2^top_level.
GP segment(Netlist& nl, const VlsaBuild& build, int j, int len) {
  if (len > j + 1) throw std::logic_error("segment overhangs bit 0");
  // Full prefix [0, j] is directly available when it fits the tree depth.
  if (len == j + 1 && j < (1 << build.top_level)) {
    return build.levels[static_cast<std::size_t>(build.top_level)][static_cast<std::size_t>(j)];
  }
  int t = 0;
  while ((2 << t) <= len) ++t;  // t = floor(log2(len))
  const GP hi = build.levels[static_cast<std::size_t>(t)][static_cast<std::size_t>(j)];
  const int rest = len - (1 << t);
  if (rest == 0) return hi;
  return adders::combine(nl, hi, segment(nl, build, j - (1 << t), rest));
}

VlsaBuild build_truncated_tree(Netlist& nl, const std::vector<Signal>& a,
                               const std::vector<Signal>& b, int l) {
  VlsaBuild build;
  const int n = static_cast<int>(a.size());
  std::vector<GP> leaves = adders::make_pg_leaves(nl, a, b);
  build.p_bit.reserve(leaves.size());
  for (const auto& leaf : leaves) build.p_bit.push_back(leaf.p);

  build.levels.push_back(std::move(leaves));
  int t = 0;
  while ((1 << t) < l) {
    const auto& prev = build.levels.back();
    std::vector<GP> cur = prev;
    const int d = 1 << t;
    for (int i = n - 1; i >= d; --i) {
      cur[static_cast<std::size_t>(i)] =
          adders::combine(nl, prev[static_cast<std::size_t>(i)], prev[static_cast<std::size_t>(i - d)]);
    }
    build.levels.push_back(std::move(cur));
    ++t;
  }
  build.top_level = t;
  return build;
}

struct VlsaPorts {
  std::vector<Signal> a, b;
};

VlsaPorts make_inputs(Netlist& nl, int n) {
  VlsaPorts in;
  for (int i = 0; i < n; ++i) in.a.push_back(nl.add_input("a[" + std::to_string(i) + "]"));
  for (int i = 0; i < n; ++i) in.b.push_back(nl.add_input("b[" + std::to_string(i) + "]"));
  return in;
}

void add_spec_outputs(Netlist& nl, const VlsaBuild& build, int n, int l) {
  nl.add_output("sum[0]", nl.buf(build.p_bit[0]), "spec");
  for (int i = 1; i < n; ++i) {
    const GP carry = segment(nl, build, i - 1, std::min(l, i));
    nl.add_output("sum[" + std::to_string(i) + "]",
                  nl.xor_(build.p_bit[static_cast<std::size_t>(i)], carry.g), "spec");
  }
  nl.add_output("cout", segment(nl, build, n - 1, std::min(l, n)).g, "spec");
}

}  // namespace

netlist::Netlist build_vlsa_spec_netlist(const VlsaConfig& config) {
  Netlist nl("vlsa_spec_" + std::to_string(config.width) + "_l" + std::to_string(config.chain));
  const auto in = make_inputs(nl, config.width);
  const VlsaBuild build = build_truncated_tree(nl, in.a, in.b, config.chain);
  add_spec_outputs(nl, build, config.width, config.chain);
  return nl;
}

netlist::Netlist build_vlsa_netlist(const VlsaConfig& config) {
  const int n = config.width;
  const int l = config.chain;
  Netlist nl("vlsa_" + std::to_string(n) + "_l" + std::to_string(l));
  const auto in = make_inputs(nl, n);
  const VlsaBuild build = build_truncated_tree(nl, in.a, in.b, l);
  add_spec_outputs(nl, build, n, l);

  // Detection: OR over all l-long propagate runs.  Composed from the same
  // truncated tree's P signals, then an n-wide OR tree — this is why VLSA's
  // detection is slower than its speculation (Ch. 7.4.2).
  std::vector<Signal> run_terms;
  for (int j = l - 1; j < n; ++j) {
    run_terms.push_back(segment(nl, build, j, l).p);
  }
  const Signal err = nl.or_reduce(run_terms);
  nl.add_output("err0", err, "detect");
  nl.add_output("stall", nl.buf(err), "detect");
  nl.add_output("valid", nl.not_(err), "detect");

  // Recovery: complete the Kogge-Stone tree and re-derive the sums.
  std::vector<GP> cur = build.levels.back();
  for (int d = 1 << build.top_level; d < n; d <<= 1) {
    const std::vector<GP> prev = cur;
    for (int i = n - 1; i >= d; --i) {
      cur[static_cast<std::size_t>(i)] =
          adders::combine(nl, prev[static_cast<std::size_t>(i)], prev[static_cast<std::size_t>(i - d)]);
    }
  }
  nl.add_output("rec[0]", nl.buf(build.p_bit[0]), "recovery");
  for (int i = 1; i < n; ++i) {
    nl.add_output("rec[" + std::to_string(i) + "]",
                  nl.xor_(build.p_bit[static_cast<std::size_t>(i)],
                          cur[static_cast<std::size_t>(i - 1)].g),
                  "recovery");
  }
  nl.add_output("rec_cout", cur[static_cast<std::size_t>(n - 1)].g, "recovery");
  return nl;
}

}  // namespace vlcsa::spec
