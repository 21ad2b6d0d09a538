#pragma once
// Test-only parser for the structural Verilog subset produced by
// emit_verilog: the round-trip oracle of verilog_parser_test, which emits a
// netlist, re-parses it and checks the two formally equivalent.  Built into
// that test only, not into the library.  Supported constructs: scalar/vector input/output/wire
// declarations and continuous assignments of the emitted shapes
// (constants, buf, ~x, x OP y, ~(x OP y), s ? a : b).

#include <string>

#include "netlist/netlist.hpp"

namespace vlcsa::netlist {

/// Parses one module.  Throws std::invalid_argument with a line-numbered
/// message on anything outside the supported subset.
/// Output groups are not representable in Verilog and come back empty.
[[nodiscard]] Netlist parse_verilog(const std::string& text);

}  // namespace vlcsa::netlist
