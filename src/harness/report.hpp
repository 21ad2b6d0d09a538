#pragma once
// Fixed-width table/series printers shared by all bench binaries, plus the
// tiny CLI parser they use for --samples/--seed overrides.  Output format is
// deliberately paper-like: one bench binary regenerates one table or figure
// as rows on stdout (see DESIGN.md "Per-experiment index").

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vlcsa::harness {

/// Column-aligned text table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Minimal ordered JSON object writer: the machine-readable result records
/// the explorer's --json flag emits (BENCH_*.json) and the service protocol's
/// request/response/cache-record lines (src/service).  Fields are written in
/// insertion order; records stay flat so they diff cleanly across
/// perf-trajectory runs, while add_json embeds one pre-rendered sub-value
/// where the protocol nests a record inside a response.  Rendering is a pure
/// function of the added fields — byte-identical output for identical fields
/// is what makes cached records comparable against fresh recomputation.
///
/// Every byte is rendered once: add escapes the key and renders the value
/// (strings escaped, doubles as printf "%.17g", non-finite doubles as null),
/// and write/render_line only concatenate the stored pieces.
class JsonObject {
 public:
  void add(std::string_view key, std::string_view value);
  /// (A literal would otherwise convert to bool, not to string_view.)
  void add(std::string_view key, const char* value);
  void add(std::string_view key, std::uint64_t value);
  void add(std::string_view key, double value);
  void add(std::string_view key, int value);
  void add(std::string_view key, bool value);

  /// Embeds `rendered_json` verbatim as the value (caller guarantees it is
  /// one valid JSON value, e.g. another JsonObject's render_line()).
  void add_json(std::string_view key, std::string rendered_json);

  /// Writes "{...}\n", one field per line.
  void write(std::ostream& os) const;

  /// Renders the object on a single line: {"a": 1, "b": "x"} — the
  /// newline-delimited service protocol's framing unit.
  [[nodiscard]] std::string render_line() const;

 private:
  void add_raw(std::string_view key, std::string rendered);

  // (escaped key, rendered value) in insertion order.
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// JSON string escaping (quotes, backslash, control characters; bytes from
/// 0x20 up, UTF-8 included, pass through).
[[nodiscard]] std::string json_escape(std::string_view text);

/// Appends json_escape(text) to `out` without a temporary.
void append_json_escaped(std::string& out, std::string_view text);

struct RunProfile;  // engine.hpp
class JsonValue;    // json.hpp

/// Renders one RunProfile as a single-line JSON object — the "profile"
/// payload of service trace lines and adder_explorer --profile.  Pure
/// observability output; never embedded in a cached result record.
[[nodiscard]] std::string render_run_profile(const RunProfile& profile);

/// The inverse of render_run_profile, strictly: an object with exactly the
/// rendered fields, each of its rendered type (unsigned integers, finite
/// numbers, a string), or nullopt.  parse_run_profile(render) == profile.
[[nodiscard]] std::optional<RunProfile> parse_run_profile(const JsonValue& value);

/// Formats a probability as a percentage with `decimals` digits ("0.01%").
[[nodiscard]] std::string fmt_pct(double fraction, int decimals = 2);

/// Formats a double with fixed decimals.
[[nodiscard]] std::string fmt_fixed(double value, int decimals = 2);

/// Formats a ratio as a signed percentage difference ("-19%", "+16%").
[[nodiscard]] std::string fmt_delta_pct(double value, double baseline);

/// Formats a probability in scientific notation ("1.14e-04").
[[nodiscard]] std::string fmt_sci(double value);

/// Common bench CLI: --samples=N --seed=S --threads=T (order-free; unknown
/// args fatal).  threads = 0 means "all hardware threads" (engine.hpp).
/// Built on the strict cli.hpp flag parser, so malformed values
/// ("--samples=12x") are rejected exactly like every other front end.
struct BenchArgs {
  std::uint64_t samples = 0;
  std::uint64_t seed = 1;
  int threads = 0;

  /// Parses argv; `default_samples` applies when --samples is absent.
  /// Throws std::invalid_argument on unknown arguments or malformed values.
  static BenchArgs parse(int argc, char** argv, std::uint64_t default_samples);
};

/// Prints the standard bench banner (artifact id + workload description).
void print_banner(std::ostream& os, const std::string& artifact, const std::string& description);

}  // namespace vlcsa::harness
