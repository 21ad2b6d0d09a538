#pragma once
// Command-line parsing for the adder_explorer front end, extracted into the
// library so the parser is unit-testable.  Parsing is strict: unknown flags,
// missing "=value" parts, non-numeric or out-of-range numbers, and bad enum
// values are all hard errors with a message naming the offending argument —
// a typo'd flag must never be silently ignored (it would quietly change
// which experiment ran).

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/montecarlo.hpp"

namespace vlcsa::harness {

/// One strict "--name=value" flag: `apply` validates and stores the value,
/// returning false to reject it.  This is the single flag-matching
/// implementation in the repo — the explorer parser, BenchArgs (report.hpp)
/// and the service binaries all build on it, so every front end reports
/// malformed input the same way.
struct ValueFlag {
  const char* name;
  std::function<bool(const std::string&)> apply;
};

/// Matches `arg` against "--name=value" / bare "--name".  Returns true when
/// `arg` addressed this flag (possibly setting `error`: bad value, or a bare
/// flag missing its "=value" part).
[[nodiscard]] bool match_value_flag(const std::string& arg, const std::string& name,
                                    const std::function<bool(const std::string&)>& apply,
                                    std::string& error);

/// Parses argv[1..] strictly against `flags`: every argument must address
/// exactly one flag (unknown arguments are errors), except arguments
/// starting with `tolerate_prefix` when non-empty (e.g. "--benchmark" so
/// google-benchmark flags don't kill table benches).  Returns "" on success,
/// else the error message naming the offending argument.
[[nodiscard]] std::string parse_value_flags(int argc, const char* const* argv,
                                            const std::vector<ValueFlag>& flags,
                                            std::string_view tolerate_prefix = {});

/// Everything the adder_explorer front end can be asked to do.
struct ExplorerOptions {
  // Mode flags (checked in this order by the front end).
  bool show_help = false;
  bool list_designs = false;
  bool list_experiments = false;

  // Netlist-building mode.
  std::string design = "kogge-stone";
  std::string verilog_path;  // --verilog=FILE
  int width = 64;
  int window = 0;  // 0 = sized for 0.01%
  int chain = 0;   // 0 = published VLSA chain length

  // Experiment mode.
  std::string experiment;  // --experiment=NAME
  std::string json_path;   // --json=FILE: result record + run envelope
  std::uint64_t samples = 0;  // 0 = the experiment's default
  std::uint64_t seed = 1;
  int threads = 0;  // 0 = all hardware threads
  EvalPath path = EvalPath::kBatched;  // --batch=on|off
  bool path_explicit = false;  // --batch was given (vs defaulted) — lets the
                               // front end reject it where it cannot apply
  bool profile = false;  // --profile: print the engine RunProfile to stderr
};

/// Result of parsing an argv; `error` is empty on success.
struct ExplorerParse {
  ExplorerOptions options;
  std::string error;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Parses adder_explorer arguments (argv[0] is skipped).  Never throws;
/// every malformed input is reported through `error`.
[[nodiscard]] ExplorerParse parse_explorer_args(int argc, const char* const* argv);

/// Strict full-string parses used by the CLI (exposed for testing): the
/// entire string must be a base-10 number in range, else false.
[[nodiscard]] bool parse_u64(const std::string& text, std::uint64_t& out);
[[nodiscard]] bool parse_nonnegative_int(const std::string& text, int& out);

}  // namespace vlcsa::harness
