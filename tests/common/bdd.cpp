#include "common/bdd.hpp"

#include <array>
#include <cmath>
#include <stdexcept>

namespace vlcsa::netlist {

BddManager::BddManager(int num_vars) : num_vars_(num_vars) {
  if (num_vars < 0) throw std::invalid_argument("BddManager: negative variable count");
  // Terminals live at refs 0 and 1 with a variable index below every real
  // variable in cofactor comparisons (num_vars_ == "past the end").
  nodes_.push_back(Node{num_vars_, kFalse, kFalse});
  nodes_.push_back(Node{num_vars_, kTrue, kTrue});
}

BddManager::NodeRef BddManager::make_node(int var, NodeRef lo, NodeRef hi) {
  if (lo == hi) return lo;  // reduction rule
  const std::array<std::uint32_t, 3> key{static_cast<std::uint32_t>(var), lo, hi};
  if (const auto it = unique_.find(key); it != unique_.end()) return it->second;
  if (node_limit_ != 0 && nodes_.size() >= node_limit_) {
    throw std::runtime_error("BddManager: node limit exceeded");
  }
  const NodeRef ref = static_cast<NodeRef>(nodes_.size());
  nodes_.push_back(Node{var, lo, hi});
  unique_.emplace(key, ref);
  return ref;
}

BddManager::NodeRef BddManager::var(int index) {
  if (index < 0 || index >= num_vars_) throw std::out_of_range("BddManager::var");
  return make_node(index, kFalse, kTrue);
}

BddManager::NodeRef BddManager::not_(NodeRef f) { return ite(f, kFalse, kTrue); }
BddManager::NodeRef BddManager::and_(NodeRef f, NodeRef g) { return ite(f, g, kFalse); }
BddManager::NodeRef BddManager::or_(NodeRef f, NodeRef g) { return ite(f, kTrue, g); }
BddManager::NodeRef BddManager::xor_(NodeRef f, NodeRef g) { return ite(f, not_(g), g); }

BddManager::NodeRef BddManager::ite(NodeRef f, NodeRef g, NodeRef h) {
  // Terminal cases.
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;

  const std::array<std::uint32_t, 3> key{f, g, h};
  if (const auto it = ite_cache_.find(key); it != ite_cache_.end()) return it->second;

  const int top = std::min(var_of(f), std::min(var_of(g), var_of(h)));
  const auto cofactor = [&](NodeRef x, bool positive) {
    if (var_of(x) != top) return x;
    return positive ? nodes_[x].hi : nodes_[x].lo;
  };
  const NodeRef lo = ite(cofactor(f, false), cofactor(g, false), cofactor(h, false));
  const NodeRef hi = ite(cofactor(f, true), cofactor(g, true), cofactor(h, true));
  const NodeRef result = make_node(top, lo, hi);
  ite_cache_.emplace(key, result);
  return result;
}

bool BddManager::evaluate(NodeRef f, const std::vector<bool>& assignment) const {
  if (static_cast<int>(assignment.size()) != num_vars_) {
    throw std::invalid_argument("BddManager::evaluate: assignment size mismatch");
  }
  while (f > kTrue) {
    const Node& node = nodes_[f];
    f = assignment[static_cast<std::size_t>(node.var)] ? node.hi : node.lo;
  }
  return f == kTrue;
}

std::optional<std::vector<bool>> BddManager::find_satisfying(NodeRef f) const {
  if (f == kFalse) return std::nullopt;
  std::vector<bool> assignment(static_cast<std::size_t>(num_vars_), false);
  while (f > kTrue) {
    const Node& node = nodes_[f];
    // In a reduced BDD every non-false node reaches the true terminal; take
    // the low branch when possible, else set the variable and go high.
    if (node.lo != kFalse) {
      f = node.lo;
    } else {
      assignment[static_cast<std::size_t>(node.var)] = true;
      f = node.hi;
    }
  }
  return assignment;
}

double BddManager::count_satisfying(NodeRef f) const {
  // count(f) over the variables at or below var(f); scale at the root.
  std::unordered_map<NodeRef, double> memo;
  const auto count = [&](auto&& self, NodeRef x) -> double {
    if (x == kFalse) return 0.0;
    if (x == kTrue) return 1.0;
    if (const auto it = memo.find(x); it != memo.end()) return it->second;
    const Node& node = nodes_[x];
    const double lo = self(self, node.lo) * std::ldexp(1.0, var_of(node.lo) - node.var - 1);
    const double hi = self(self, node.hi) * std::ldexp(1.0, var_of(node.hi) - node.var - 1);
    const double total = lo + hi;
    memo.emplace(x, total);
    return total;
  };
  return count(count, f) * std::ldexp(1.0, var_of(f));
}

}  // namespace vlcsa::netlist
