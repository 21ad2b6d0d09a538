#pragma once
// Behavioral models of SCSA 1 / SCSA 2 (Chs. 3, 4, 6) — the reference
// semantics against which the generated netlists are equivalence-checked,
// and the engine behind every Monte Carlo experiment.
//
// Conventions (matching the paper):
//  * No external carry-in; the first window's carry-in is 0.
//  * A window's two conditional results (carry-in 0 / 1) come from the same
//    group P/G computation; SCSA 1 selects with the previous window's
//    group-generate signal, SCSA 2 additionally forms S*,1 selected with the
//    previous window's carry-out-assuming-carry-in-1 (G | P).
//  * "Result" includes the carry-out bit, so the detection identity
//    ERR0 == (S*,0 wrong) holds exactly for SCSA 1 (see error_model.hpp).

#include <cstdint>
#include <vector>

#include "arith/apint.hpp"
#include "arith/bitslice.hpp"
#include "speculative/window.hpp"

namespace vlcsa::spec {

using arith::ApInt;
using arith::BitSlicedBatch;

enum class ScsaVariant {
  kScsa1,  // single speculative result, detector ERR0 (Ch. 5)
  kScsa2,  // dual speculative results, detectors ERR0/ERR1 (Ch. 6)
};

[[nodiscard]] const char* to_string(ScsaVariant variant);

struct ScsaConfig {
  int width = 64;   // n
  int window = 14;  // k
};

/// Everything one SCSA evaluation produces.  Fields are grouped by the
/// hardware block that computes them.
struct ScsaEvaluation {
  // Exact reference.
  ApInt exact;
  bool exact_cout = false;

  // Speculative datapath.
  ApInt spec0;  // S*,0 — the SCSA 1 result
  bool spec0_cout = false;
  ApInt spec1;  // S*,1 — the extra SCSA 2 result (== spec0 for variant 1 queries)
  bool spec1_cout = false;

  // Detection block.
  bool err0 = false;
  bool err1 = false;

  // Recovery block (always exact by construction; kept for invariant tests).
  ApInt recovered;
  bool recovered_cout = false;

  // Per-window group signals (inputs to detection/recovery).
  std::vector<bool> window_g;
  std::vector<bool> window_p;

  [[nodiscard]] bool spec0_correct() const {
    return spec0 == exact && spec0_cout == exact_cout;
  }
  [[nodiscard]] bool spec1_correct() const {
    return spec1 == exact && spec1_cout == exact_cout;
  }
  /// Paper's Table 7.2 correctness notion: either speculative result matches.
  [[nodiscard]] bool either_correct() const { return spec0_correct() || spec1_correct(); }

  /// VLCSA 1 stalls (2 cycles) when ERR0 flags.
  [[nodiscard]] bool vlcsa1_stall() const { return err0; }
  /// VLCSA 2 stalls only when both detectors flag (Ch. 6.7 case 3).
  [[nodiscard]] bool vlcsa2_stall() const { return err0 && err1; }

  /// The single-cycle result VLCSA 2 emits when it does not stall:
  /// S*,0 if ERR0 = 0, else S*,1 (Ch. 6.7 cases 1/2).
  [[nodiscard]] const ApInt& vlcsa2_selected() const { return err0 ? spec1 : spec0; }
  [[nodiscard]] bool vlcsa2_selected_cout() const { return err0 ? spec1_cout : spec0_cout; }
  [[nodiscard]] bool vlcsa2_selected_correct() const {
    return vlcsa2_selected() == exact && vlcsa2_selected_cout() == exact_cout;
  }
};

/// Word-parallel SCSA evaluation of a whole batch (64 * lane_words samples):
/// every field is a lane-mask group of lane_words() words — bit j of word w
/// refers to sample w*64 + j of the batch.  Only correctness/detection
/// *predicates* are materialized (not the speculative sums themselves):
/// planeops::scsa_window_sweep derives them from window G/P and the exact
/// window carries in one pass over the operand planes, with no scratch.
/// The scalar evaluate() remains the oracle; the differential tests pin the
/// two paths bit-identical across lane widths and planeops backends.
struct ScsaBatchEvaluation {
  arith::planeops::PlaneVec spec0_wrong;  // S*,0 (incl. carry-out) != exact
  arith::planeops::PlaneVec spec1_wrong;  // S*,1 (incl. carry-out) != exact
  arith::planeops::PlaneVec err0;         // detector ERR0 fired
  arith::planeops::PlaneVec err1;         // detector ERR1 fired

  [[nodiscard]] int lane_words() const { return static_cast<int>(err0.size()); }

  /// Table 7.2 correctness notion, negated: neither result matches.
  [[nodiscard]] std::uint64_t either_wrong(int w) const {
    return spec0_wrong[static_cast<std::size_t>(w)] & spec1_wrong[static_cast<std::size_t>(w)];
  }
  [[nodiscard]] std::uint64_t vlcsa1_stall(int w) const {
    return err0[static_cast<std::size_t>(w)];
  }
  [[nodiscard]] std::uint64_t vlcsa2_stall(int w) const {
    return err0[static_cast<std::size_t>(w)] & err1[static_cast<std::size_t>(w)];
  }
  /// Wrongness of the result VLCSA 2 emits when it does not stall
  /// (S*,0 if ERR0 = 0, else S*,1).
  [[nodiscard]] std::uint64_t vlcsa2_selected_wrong(int w) const {
    const std::size_t i = static_cast<std::size_t>(w);
    return (err0[i] & spec1_wrong[i]) | (~err0[i] & spec0_wrong[i]);
  }
};

/// Behavioral SCSA evaluator.  One instance is reusable across calls and
/// cheap to evaluate (a few machine-word operations per window).
class ScsaModel {
 public:
  explicit ScsaModel(ScsaConfig config);

  [[nodiscard]] const ScsaConfig& config() const { return config_; }
  [[nodiscard]] const WindowLayout& layout() const { return layout_; }

  /// Full evaluation (both variants' signals are always produced).
  [[nodiscard]] ScsaEvaluation evaluate(const ApInt& a, const ApInt& b) const;

  /// Bit-sliced evaluation of 64 samples in one pass (thread-safe: all
  /// mutable state lives in `out`).  Produces exactly the lane masks the
  /// Monte Carlo counters need; see ScsaBatchEvaluation.
  void evaluate_batch(const BitSlicedBatch& batch, ScsaBatchEvaluation& out) const;

 private:
  ScsaConfig config_;
  WindowLayout layout_;
  std::vector<int> window_sizes_;  // layout_'s sizes, bottom window first
};

}  // namespace vlcsa::spec
