#pragma once
// Formal combinational equivalence checking between two netlists, via BDDs.
//
// Test-only: built into equivalence_test, verilog_parser_test and
// formal_test (tests/CMakeLists.txt), not into the library.
//
// Unlike the randomized simulation checks in the test utilities, this
// *proves* equality over the full input space — the right tool for "the
// optimizer preserved the function", "every prefix topology adds", and "the
// VLCSA recovery bank equals an exact adder".
//
// Inputs are matched by port name across the two netlists (the sets must be
// identical).  The BDD variable order interleaves bus bits — names like
// "a[3]"/"b[3]" sort by (index, base) — which keeps adder cones linear-sized.

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"

namespace vlcsa::netlist {

enum class Verdict {
  kEquivalent,
  kNotEquivalent,
  kResourceLimit,  // BDD node limit hit before a verdict
};

struct EquivalenceResult {
  Verdict verdict = Verdict::kResourceLimit;
  /// First output pair that differs (named as in netlist a).
  std::string mismatch_output;
  /// Input assignment witnessing the mismatch (input name -> value).
  std::vector<std::pair<std::string, bool>> counterexample;
  /// Outputs actually compared.
  std::size_t outputs_compared = 0;
  /// Peak BDD nodes used.
  std::size_t bdd_nodes = 0;

  [[nodiscard]] bool equivalent() const { return verdict == Verdict::kEquivalent; }
};

/// Proves (or refutes) that every comparable output of `a` equals the
/// correspondingly named output of `b`.
///
/// With a non-empty `output_map`, exactly the mapped a-outputs are compared
/// against the named b-outputs (e.g. {"rec[0]" -> "sum[0]"} checks a
/// recovery bank against an adder, ignoring the speculative ports).  With an
/// empty map, outputs with identical names in both netlists are compared.
/// At least one output must be comparable.
[[nodiscard]] EquivalenceResult prove_equivalent(
    const Netlist& a, const Netlist& b,
    const std::map<std::string, std::string>& output_map = {},
    std::size_t node_limit = 5000000);

}  // namespace vlcsa::netlist
