#pragma once
// A compact reduced-ordered BDD package, used by the formal equivalence
// checker (equivalence.hpp) to *prove* — not sample — that generated
// netlists implement addition, that the optimizer preserves functions, and
// that the VLCSA recovery path is exact.
//
// Test-only: built into bdd_test and the three equivalence-checking tests
// (tests/CMakeLists.txt), not into the library.
//
// Design notes: classic unique-table + ITE with a computed cache, no
// complement edges (simplicity over peak capacity).  Adder cones with an
// interleaved variable order stay small (O(n) nodes), so 64-bit datapaths
// verify in milliseconds.

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

namespace vlcsa::netlist {

class BddManager {
 public:
  /// Handle to a BDD node.  0 and 1 are the terminal constants.
  using NodeRef = std::uint32_t;
  static constexpr NodeRef kFalse = 0;
  static constexpr NodeRef kTrue = 1;

  /// Creates a manager over `num_vars` variables; variable index order is
  /// the BDD order (index 0 at the top).
  explicit BddManager(int num_vars);

  [[nodiscard]] int num_vars() const { return num_vars_; }

  /// The projection function of variable `index`.
  [[nodiscard]] NodeRef var(int index);

  [[nodiscard]] NodeRef not_(NodeRef f);
  [[nodiscard]] NodeRef and_(NodeRef f, NodeRef g);
  [[nodiscard]] NodeRef or_(NodeRef f, NodeRef g);
  [[nodiscard]] NodeRef xor_(NodeRef f, NodeRef g);
  [[nodiscard]] NodeRef ite(NodeRef f, NodeRef g, NodeRef h);

  /// Number of live nodes (terminals included).
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  /// Evaluates `f` under a full variable assignment.
  [[nodiscard]] bool evaluate(NodeRef f, const std::vector<bool>& assignment) const;

  /// Returns a satisfying assignment of `f`, or nullopt when f == false.
  /// Unconstrained variables default to 0.
  [[nodiscard]] std::optional<std::vector<bool>> find_satisfying(NodeRef f) const;

  /// Count of satisfying assignments over all num_vars() variables (as a
  /// double: adders overflow 64-bit counts quickly).
  [[nodiscard]] double count_satisfying(NodeRef f) const;

  /// Throws std::runtime_error once node_count() exceeds this (0 = off).
  void set_node_limit(std::size_t limit) { node_limit_ = limit; }

 private:
  struct Node {
    int var;      // variable index; terminals use num_vars_
    NodeRef lo;   // cofactor var = 0
    NodeRef hi;   // cofactor var = 1
  };

  struct TripleHash {
    std::size_t operator()(const std::array<std::uint32_t, 3>& k) const {
      std::size_t h = k[0];
      h = h * 0x9e3779b97f4a7c15ull ^ k[1];
      h = h * 0x9e3779b97f4a7c15ull ^ k[2];
      return h;
    }
  };

  [[nodiscard]] NodeRef make_node(int var, NodeRef lo, NodeRef hi);
  [[nodiscard]] int var_of(NodeRef f) const { return nodes_[f].var; }

  int num_vars_;
  std::size_t node_limit_ = 0;
  std::vector<Node> nodes_;
  std::unordered_map<std::array<std::uint32_t, 3>, NodeRef, TripleHash> unique_;
  std::unordered_map<std::array<std::uint32_t, 3>, NodeRef, TripleHash> ite_cache_;
};

}  // namespace vlcsa::netlist
