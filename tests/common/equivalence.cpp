#include "common/equivalence.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "common/bdd.hpp"

namespace vlcsa::netlist {

namespace {

/// Splits "base[idx]" into (base, idx); idx = -1 for scalar names.
std::pair<std::string, int> split_indexed(const std::string& name) {
  const auto lb = name.find('[');
  if (lb == std::string::npos || name.back() != ']') return {name, -1};
  const std::string idx = name.substr(lb + 1, name.size() - lb - 2);
  if (idx.empty()) return {name, -1};
  for (const char c : idx) {
    if (c < '0' || c > '9') return {name, -1};
  }
  return {name.substr(0, lb), std::stoi(idx)};
}

/// Interleaving variable order: by bit index first, then base name; scalars
/// (cin etc.) in front.
std::vector<std::string> ordered_input_names(const Netlist& nl) {
  std::vector<std::string> names;
  names.reserve(nl.inputs().size());
  for (const auto& port : nl.inputs()) names.push_back(port.name);
  std::stable_sort(names.begin(), names.end(), [](const std::string& x, const std::string& y) {
    const auto [bx, ix] = split_indexed(x);
    const auto [by, iy] = split_indexed(y);
    if (ix != iy) return ix < iy;
    return bx < by;
  });
  return names;
}

/// Builds BDDs for every output of `nl` under the given input-name -> BDD
/// variable mapping.  Returns output name -> BDD.
std::map<std::string, BddManager::NodeRef> build_output_bdds(
    BddManager& mgr, const Netlist& nl, const std::map<std::string, int>& var_of_input) {
  std::vector<BddManager::NodeRef> ref(nl.num_gates(), BddManager::kFalse);
  std::size_t input_idx = 0;
  for (std::uint32_t i = 0; i < nl.num_gates(); ++i) {
    const Gate& g = nl.gates()[i];
    const auto in = [&](int pin) { return ref[g.fanin[static_cast<std::size_t>(pin)].id]; };
    switch (g.kind) {
      case GateKind::kConst0: ref[i] = BddManager::kFalse; break;
      case GateKind::kConst1: ref[i] = BddManager::kTrue; break;
      case GateKind::kInput:
        ref[i] = mgr.var(var_of_input.at(nl.inputs()[input_idx++].name));
        break;
      case GateKind::kBuf: ref[i] = in(0); break;
      case GateKind::kNot: ref[i] = mgr.not_(in(0)); break;
      case GateKind::kAnd2: ref[i] = mgr.and_(in(0), in(1)); break;
      case GateKind::kOr2: ref[i] = mgr.or_(in(0), in(1)); break;
      case GateKind::kNand2: ref[i] = mgr.not_(mgr.and_(in(0), in(1))); break;
      case GateKind::kNor2: ref[i] = mgr.not_(mgr.or_(in(0), in(1))); break;
      case GateKind::kXor2: ref[i] = mgr.xor_(in(0), in(1)); break;
      case GateKind::kXnor2: ref[i] = mgr.not_(mgr.xor_(in(0), in(1))); break;
      case GateKind::kMux2: ref[i] = mgr.ite(in(0), in(2), in(1)); break;
    }
  }
  std::map<std::string, BddManager::NodeRef> outputs;
  for (const auto& port : nl.outputs()) outputs[port.name] = ref[port.signal.id];
  return outputs;
}

}  // namespace

EquivalenceResult prove_equivalent(const Netlist& a, const Netlist& b,
                                   const std::map<std::string, std::string>& output_map,
                                   std::size_t node_limit) {
  // Input sets must match by name.
  std::set<std::string> in_a, in_b;
  for (const auto& p : a.inputs()) in_a.insert(p.name);
  for (const auto& p : b.inputs()) in_b.insert(p.name);
  if (in_a != in_b) {
    throw std::invalid_argument("prove_equivalent: input port sets differ");
  }

  // Shared variable order.
  const auto order = ordered_input_names(a);
  std::map<std::string, int> var_of_input;
  for (std::size_t i = 0; i < order.size(); ++i) {
    var_of_input[order[i]] = static_cast<int>(i);
  }

  BddManager mgr(static_cast<int>(order.size()));
  mgr.set_node_limit(node_limit);

  EquivalenceResult result;
  try {
    const auto bdd_a = build_output_bdds(mgr, a, var_of_input);
    const auto bdd_b = build_output_bdds(mgr, b, var_of_input);

    for (const auto& [name_a, ref_a] : bdd_a) {
      // With an explicit map only the mapped outputs are compared; without
      // one, identically named outputs are.
      std::string name_b;
      if (!output_map.empty()) {
        const auto it = output_map.find(name_a);
        if (it == output_map.end()) continue;
        name_b = it->second;
      } else {
        name_b = name_a;
      }
      const auto it_b = bdd_b.find(name_b);
      if (it_b == bdd_b.end()) continue;  // not comparable
      ++result.outputs_compared;
      if (ref_a == it_b->second) continue;  // canonical: equal refs <=> equal functions
      // Extract a witness from the difference function.
      const auto diff = mgr.xor_(ref_a, it_b->second);
      const auto assignment = mgr.find_satisfying(diff);
      result.verdict = Verdict::kNotEquivalent;
      result.mismatch_output = name_a;
      if (assignment) {
        for (std::size_t v = 0; v < order.size(); ++v) {
          result.counterexample.emplace_back(order[v], (*assignment)[v]);
        }
      }
      result.bdd_nodes = mgr.node_count();
      return result;
    }
  } catch (const std::runtime_error&) {
    result.verdict = Verdict::kResourceLimit;
    result.bdd_nodes = mgr.node_count();
    return result;
  }

  if (result.outputs_compared == 0) {
    throw std::invalid_argument("prove_equivalent: no comparable outputs");
  }
  result.verdict = Verdict::kEquivalent;
  result.bdd_nodes = mgr.node_count();
  return result;
}

}  // namespace vlcsa::netlist
