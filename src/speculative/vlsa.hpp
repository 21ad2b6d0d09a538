#pragma once
// Reconstruction of VLSA — the variable-latency speculative adder of Verma,
// Brisk and Ienne [17], the paper's primary baseline (Ch. 7.4).
//
// Speculation is per *bit position*: the carry out of bit j is computed from
// only the l bits ending at bit j ("speculative carry chain length" l),
// realized as a depth-truncated Kogge-Stone tree with sharing.  Detection
// flags any run of l consecutive propagate bits (an over-approximation of
// "some carry chain exceeds l").  Recovery completes the truncated prefix
// tree into a full Kogge-Stone and re-derives the sums.
//
// The reconstruction preserves the properties the paper leans on:
//  * detection is *slower* than speculation (it appends an n-wide OR tree),
//  * total area exceeds a plain Kogge-Stone (full tree + detector + spec),
//  * speculation errs on any carry chain longer than l, so error rates match
//    the published design points (Table 7.3).

#include <cstdint>
#include <vector>

#include "adders/prefix.hpp"
#include "arith/apint.hpp"
#include "arith/bitslice.hpp"
#include "netlist/netlist.hpp"

namespace vlcsa::spec {

using arith::ApInt;

struct VlsaConfig {
  int width = 64;
  int chain = 17;  // speculative carry chain length l
};

struct VlsaEvaluation {
  ApInt exact;
  bool exact_cout = false;
  ApInt spec;
  bool spec_cout = false;
  bool err = false;  // detection: some l-long propagate run exists
  ApInt recovered;
  bool recovered_cout = false;

  [[nodiscard]] bool spec_correct() const { return spec == exact && spec_cout == exact_cout; }
  [[nodiscard]] bool stall() const { return err; }
};

/// Word-parallel VLSA evaluation of a whole batch (64 * lane_words samples;
/// lane-mask groups, bit j of word w = sample w*64 + j).  Like
/// ScsaBatchEvaluation, only the predicates the Monte Carlo counters consume
/// are materialized — by planeops::vlsa_run_sweep's one pass over the
/// operand planes; evaluate() stays the oracle.
struct VlsaBatchEvaluation {
  arith::planeops::PlaneVec spec_wrong;  // speculative result (incl. cout) != exact
  arith::planeops::PlaneVec err;         // detection: some l-long propagate run

  [[nodiscard]] int lane_words() const { return static_cast<int>(err.size()); }
};

class VlsaModel {
 public:
  explicit VlsaModel(VlsaConfig config);

  [[nodiscard]] const VlsaConfig& config() const { return config_; }
  [[nodiscard]] VlsaEvaluation evaluate(const ApInt& a, const ApInt& b) const;

  /// Bit-sliced evaluation of 64 samples (thread-safe; scratch in `out`).
  void evaluate_batch(const arith::BitSlicedBatch& batch, VlsaBatchEvaluation& out) const;

 private:
  VlsaConfig config_;
};

/// Full VLSA netlist with output groups "spec" (sum[i], cout), "detect"
/// (err0, stall, valid) and "recovery" (rec[i], rec_cout) — the same port
/// convention as build_vlcsa_netlist so the synthesis harness treats both
/// uniformly.
[[nodiscard]] netlist::Netlist build_vlsa_netlist(const VlsaConfig& config);

/// Speculative part only (for the Fig 7.2/7.3 comparison).
[[nodiscard]] netlist::Netlist build_vlsa_spec_netlist(const VlsaConfig& config);

}  // namespace vlcsa::spec
