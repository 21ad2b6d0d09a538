// The DesignWare-substitute baseline (see DESIGN.md "Substitutions and
// deviations").
//
// Synopsys DesignWare's DW01_add resolves, under a tight delay constraint,
// to a delay-optimized parallel-prefix (or hybrid) architecture chosen by
// the tool.  The open equivalent implemented here synthesizes every
// candidate family through the same optimizer + static timing flow and keeps
// the fastest result, breaking ties by area.  The paper itself reports that
// DesignWare beat the authors' own hybrid Kogge-Stone carry-select adder;
// that hybrid is included in the candidate set.

#include <array>
#include <limits>

#include "adders/adders.hpp"
#include "netlist/opt.hpp"
#include "netlist/timing.hpp"

namespace vlcsa::adders {

Netlist build_designware_adder(int n, DesignWareChoice* choice) {
  static constexpr std::array<AdderKind, 6> kCandidates = {
      AdderKind::kKoggeStone,   AdderKind::kSklansky,
      AdderKind::kHanCarlson,   AdderKind::kBrentKung,
      AdderKind::kCarrySelect,  AdderKind::kHybridKsCarrySelect,
  };

  Netlist best("designware_" + std::to_string(n));
  AdderKind best_kind = AdderKind::kKoggeStone;
  double best_delay = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();

  for (const AdderKind kind : kCandidates) {
    Netlist candidate = netlist::optimize(build_adder_netlist(kind, n));
    const auto timing = netlist::analyze_timing(candidate);
    const auto area = netlist::analyze_area(candidate);
    const bool faster = timing.critical_delay < best_delay;
    const bool tie_smaller =
        timing.critical_delay == best_delay && area.total < best_area;
    if (faster || tie_smaller) {
      best_delay = timing.critical_delay;
      best_area = area.total;
      best_kind = kind;
      best = std::move(candidate);
    }
  }

  best.set_name("designware_" + std::to_string(n));
  if (choice != nullptr) {
    choice->winner = best_kind;
    choice->delay = best_delay;
    choice->area = best_area;
  }
  return best;
}

}  // namespace vlcsa::adders
