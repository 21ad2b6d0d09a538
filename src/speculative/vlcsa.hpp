#pragma once
// VLCSA 1 / VLCSA 2 — the reliable variable-latency adders (Chs. 5, 6.7).
//
// Operation per the paper: inputs are applied; the speculative result and
// the detection signals are ready within one clock.  If detection does not
// stall, the speculative result is emitted (1 cycle).  Otherwise the adder
// stalls one extra cycle and emits the recovery result (2 cycles).  The
// recovery path is guaranteed exact, so the emitted result is always
// correct — "reliable" in the paper's sense.  Average latency follows
// eq. (5.2)/(6.1): T_ave = (1 + P_err) * T_clk with P_err the *stall* rate.

#include <cstdint>

#include "speculative/scsa.hpp"

namespace vlcsa::spec {

struct VlcsaConfig {
  int width = 64;
  int window = 14;
  ScsaVariant variant = ScsaVariant::kScsa1;
};

/// One variable-latency addition.
struct VlcsaStep {
  ApInt result;
  bool cout = false;
  int cycles = 1;        // 1 (speculative) or 2 (recovered)
  bool stalled = false;  // detection fired
  ScsaEvaluation eval;   // full signal detail for tests/analysis
};

/// One whole batch (64 * lane_words) of variable-latency additions, as
/// lane-mask groups (bit j of word w = sample w*64 + j).  Cycle counts per
/// lane follow from `stalled`: 2 where set, 1 elsewhere.
struct VlcsaBatchStep {
  arith::planeops::PlaneVec stalled;        // detection fired -> recovery cycle
  arith::planeops::PlaneVec emitted_wrong;  // final emitted result wrong (must be 0)
  ScsaBatchEvaluation eval;

  [[nodiscard]] int lane_words() const { return static_cast<int>(stalled.size()); }
};

class VlcsaModel {
 public:
  explicit VlcsaModel(VlcsaConfig config)
      : config_(config), scsa_(ScsaConfig{config.width, config.window}) {}

  [[nodiscard]] const VlcsaConfig& config() const { return config_; }
  [[nodiscard]] const ScsaModel& scsa() const { return scsa_; }

  [[nodiscard]] VlcsaStep step(const ApInt& a, const ApInt& b) const;

  /// Bit-sliced step over 64 operand pairs (thread-safe; scratch in `out`).
  void step_batch(const BitSlicedBatch& batch, VlcsaBatchStep& out) const;

 private:
  VlcsaConfig config_;
  ScsaModel scsa_;
};

}  // namespace vlcsa::spec
