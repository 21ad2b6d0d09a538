#pragma once
// Normalized technology model — the substitute for the UMC 65 nm standard
// cell library used in the paper (see DESIGN.md "Substitutions and
// deviations").
//
// Delay follows the logical-effort model: a gate driving h unit loads takes
//   d = parasitic + effort * h        [units of tau]
// Area is measured in minimal-inverter equivalents (transistor-count based).
// The paper's conclusions are ratio claims; this model preserves the depth,
// fanout and size relations that produce those ratios.

#include <cmath>

#include "netlist/gate.hpp"

namespace vlcsa::netlist {

struct CellParams {
  double effort = 0.0;     // logical effort g
  double parasitic = 0.0;  // parasitic delay p
  double area = 0.0;       // in minimal-inverter units
};

class CellLibrary {
 public:
  /// Loads beyond this per driver are assumed to go through an inserted
  /// buffer chain (what synthesis does); each chain stage drives kMaxFanout.
  static constexpr double kMaxFanout = 4.0;

  /// The default normalized library (values in library.cpp).
  [[nodiscard]] static const CellLibrary& standard();

  [[nodiscard]] const CellParams& params(GateKind kind) const {
    return cells_[static_cast<std::size_t>(kind)];
  }

  /// Delay of a gate driving `fanout` unit loads, including the implicit
  /// buffer chain when the fanout exceeds kMaxFanout.  Unbuffered linear
  /// loading would make every high-fanout select/carry net pay O(fanout)
  /// delay, which no synthesized design does; the chain model keeps the
  /// penalty logarithmic, as after buffer insertion.
  [[nodiscard]] double delay(GateKind kind, double fanout) const {
    const auto& c = params(kind);
    const auto& buf = params(GateKind::kBuf);
    double load = fanout;
    double chain = 0.0;
    while (load > kMaxFanout) {
      load = std::ceil(load / kMaxFanout);
      chain += buf.parasitic + buf.effort * kMaxFanout;
    }
    return c.parasitic + c.effort * load + chain;
  }

  [[nodiscard]] double area(GateKind kind) const { return params(kind).area; }

  /// Effort/parasitic of the driver modeled behind each primary input.  A
  /// primary input driving f gate pins arrives at p + g*f: this is how the
  /// "large fanout at the primary inputs" cost of per-bit speculation
  /// (Ch. 1/2) enters the timing model.
  [[nodiscard]] const CellParams& input_driver() const { return input_driver_; }

  CellLibrary();  // default-constructs the standard values; tests may mutate copies

  /// Overrides one cell (for sensitivity/ablation studies).
  void set_params(GateKind kind, CellParams p) { cells_[static_cast<std::size_t>(kind)] = p; }

 private:
  CellParams cells_[kNumGateKinds];
  CellParams input_driver_;
};

}  // namespace vlcsa::netlist
