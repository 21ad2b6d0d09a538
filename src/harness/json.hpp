#pragma once
// Strict JSON parser — the read-side dual of report.hpp's JsonObject writer.
// One implementation serves every place the repo consumes JSON: service
// protocol requests (src/service), cache-file loading, and validating the
// records the explorer's --json flag emits.
//
// Strictness mirrors the CLI parser's philosophy (cli.hpp): the entire input
// must be exactly one RFC 8259 value, duplicate object keys are errors (a
// request naming "seed" twice must not silently drop one), unescaped control
// characters are errors, and numbers follow the JSON grammar exactly (no
// leading zeros, no bare '.', no hex).  Every malformed input is reported
// through JsonParse::error with the byte offset — parsing never throws.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vlcsa::harness {

/// One parsed JSON value.  Object members and array items preserve document
/// order (the same insertion-order contract JsonObject writes with).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;  // null

  [[nodiscard]] static JsonValue make_null();
  [[nodiscard]] static JsonValue make_bool(bool value);
  [[nodiscard]] static JsonValue make_number(std::string token, double value);
  [[nodiscard]] static JsonValue make_string(std::string value);
  [[nodiscard]] static JsonValue make_array(std::vector<JsonValue> items);
  [[nodiscard]] static JsonValue make_object(std::vector<Member> members);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }

  /// Kind-checked accessors; throw std::logic_error when the value is not of
  /// the requested kind (a programmer error, unlike malformed input).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;
  [[nodiscard]] const std::vector<Member>& members() const;

  /// The number's raw source token ("1e3", "0.25", ...), preserved so exact
  /// integer extraction does not round-trip through double.
  [[nodiscard]] const std::string& number_text() const;

  /// True iff this is a number that is exactly a non-negative base-10
  /// integer fitting std::uint64_t ("1e3" and "1.0" are not, by design —
  /// protocol counters must be written as integers).
  [[nodiscard]] bool to_u64(std::uint64_t& out) const;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// This value's exact bytes in `text`, the input parse_json read it from
  /// (first byte through closing brace/bracket/quote, no surrounding
  /// whitespace).  Lets a reader carry an embedded value through verbatim —
  /// re-rendering the tree could reformat it and break byte identity.
  /// Empty for values built by make_*.
  [[nodiscard]] std::string_view source(std::string_view text) const {
    return text.substr(begin_, end_ - begin_);
  }

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string text_;  // string payload, or the raw number token
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
  std::size_t begin_ = 0;  // source byte range [begin_, end_), see source()
  std::size_t end_ = 0;
};

/// Result of parsing; `error` is empty on success and names the problem plus
/// the byte offset otherwise.
struct JsonParse {
  JsonValue value;
  std::string error;
  std::size_t offset = 0;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Parses `text` as exactly one JSON value (leading/trailing whitespace
/// allowed, trailing garbage is an error).  Nesting is limited to
/// kMaxJsonDepth so adversarial request lines cannot overflow the stack.
inline constexpr int kMaxJsonDepth = 64;
[[nodiscard]] JsonParse parse_json(std::string_view text);

/// Strictness for every reader with a fixed schema (protocol requests, sweep
/// specs): each member of `object` must be named in `allowed` or in
/// `also_allowed` (the service's envelope fields) — a typo'd field is an
/// error, never silently ignored.  Returns "" or
/// "unknown field 'KEY' <where>" for the first stray member.
[[nodiscard]] std::string check_fields(const JsonValue& object,
                                       std::span<const std::string_view> allowed,
                                       std::string_view where,
                                       std::span<const std::string_view> also_allowed = {});

}  // namespace vlcsa::harness
