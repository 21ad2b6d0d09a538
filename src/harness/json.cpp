#include "harness/json.hpp"

#include <charconv>
#include <stdexcept>

namespace vlcsa::harness {

JsonValue JsonValue::make_null() { return JsonValue(); }

JsonValue JsonValue::make_bool(bool value) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::make_number(std::string token, double value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.text_ = std::move(token);
  v.number_ = value;
  return v;
}

JsonValue JsonValue::make_string(std::string value) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.text_ = std::move(value);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.items_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(std::vector<Member> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.members_ = std::move(members);
  return v;
}

namespace {

[[noreturn]] void wrong_kind(const char* wanted) {
  throw std::logic_error(std::string("JsonValue: value is not ") + wanted);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) wrong_kind("a bool");
  return bool_;
}

double JsonValue::as_double() const {
  if (kind_ != Kind::kNumber) wrong_kind("a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) wrong_kind("a string");
  return text_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (kind_ != Kind::kArray) wrong_kind("an array");
  return items_;
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  if (kind_ != Kind::kObject) wrong_kind("an object");
  return members_;
}

const std::string& JsonValue::number_text() const {
  if (kind_ != Kind::kNumber) wrong_kind("a number");
  return text_;
}

bool JsonValue::to_u64(std::uint64_t& out) const {
  if (kind_ != Kind::kNumber) return false;
  if (text_.empty() || text_.find_first_of(".eE-") != std::string::npos) return false;
  std::uint64_t value = 0;
  const char* first = text_.data();
  const char* last = text_.data() + text_.size();
  const auto [ptr, ec] = std::from_chars(first, last, value, 10);
  if (ec != std::errc{} || ptr != last) return false;
  out = value;
  return true;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const Member& member : members_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

std::string check_fields(const JsonValue& object,
                         std::initializer_list<std::string_view> allowed,
                         std::string_view where) {
  for (const auto& [key, value] : object.members()) {
    bool known = false;
    for (const std::string_view name : allowed) {
      if (key == name) {
        known = true;
        break;
      }
    }
    if (!known) return "unknown field '" + key + "' " + std::string(where);
  }
  return {};
}

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonParse run() {
    JsonParse parse;
    skip_ws();
    parse.value = parse_value(0);
    if (ok()) {
      skip_ws();
      if (pos_ != text_.size()) fail("trailing characters after JSON value");
    }
    parse.error = error_;
    parse.offset = error_offset_;
    return parse;
  }

 private:
  [[nodiscard]] bool ok() const { return error_.empty(); }

  void fail(const std::string& message) {
    if (!ok()) return;
    error_ = message + " at offset " + std::to_string(pos_);
    error_offset_ = pos_;
  }

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!at_end()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      fail("invalid literal");
      return false;
    }
    pos_ += literal.size();
    return true;
  }

  // Parses one value and stamps its source byte range.
  JsonValue parse_value(int depth) {
    const std::size_t begin = pos_;
    JsonValue value = parse_bare_value(depth);
    value.begin_ = begin;
    value.end_ = pos_;
    return value;
  }

  JsonValue parse_bare_value(int depth) {
    if (depth > kMaxJsonDepth) {
      fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
      return {};
    }
    if (at_end()) {
      fail("unexpected end of input");
      return {};
    }
    switch (peek()) {
      case 'n': consume_literal("null"); return JsonValue::make_null();
      case 't': consume_literal("true"); return JsonValue::make_bool(true);
      case 'f': consume_literal("false"); return JsonValue::make_bool(false);
      case '"': return JsonValue::make_string(parse_string());
      case '[': return parse_array(depth);
      case '{': return parse_object(depth);
      default: return parse_number();
    }
  }

  JsonValue parse_array(int depth) {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    skip_ws();
    if (!at_end() && peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    while (ok()) {
      skip_ws();
      items.push_back(parse_value(depth + 1));
      if (!ok()) break;
      skip_ws();
      if (at_end()) {
        fail("unterminated array");
        break;
      }
      const char c = peek();
      ++pos_;
      if (c == ']') return JsonValue::make_array(std::move(items));
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
        break;
      }
    }
    return {};
  }

  JsonValue parse_object(int depth) {
    ++pos_;  // '{'
    std::vector<JsonValue::Member> members;
    skip_ws();
    if (!at_end() && peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    while (ok()) {
      skip_ws();
      if (at_end() || peek() != '"') {
        fail("expected string object key");
        break;
      }
      std::string key = parse_string();
      if (!ok()) break;
      for (const auto& member : members) {
        if (member.first == key) {
          fail("duplicate object key '" + key + "'");
          break;
        }
      }
      if (!ok()) break;
      skip_ws();
      if (at_end() || peek() != ':') {
        fail("expected ':' after object key");
        break;
      }
      ++pos_;
      skip_ws();
      JsonValue value = parse_value(depth + 1);
      if (!ok()) break;
      members.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (at_end()) {
        fail("unterminated object");
        break;
      }
      const char c = peek();
      ++pos_;
      if (c == '}') return JsonValue::make_object(std::move(members));
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
        break;
      }
    }
    return {};
  }

  // RFC 8259 number grammar: -? (0 | [1-9][0-9]*) frac? exp?
  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') ++pos_;
    if (at_end() || peek() < '0' || peek() > '9') {
      pos_ = start;
      fail("invalid number");
      return {};
    }
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!at_end() && peek() == '.') {
      ++pos_;
      if (at_end() || peek() < '0' || peek() > '9') {
        fail("digit required after decimal point");
        return {};
      }
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      if (at_end() || peek() < '0' || peek() > '9') {
        fail("digit required in exponent");
        return {};
      }
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    std::string token(text_.substr(start, pos_ - start));
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec == std::errc::result_out_of_range) {
      // Magnitude over/underflow is representable as ±inf/0 per from_chars;
      // keep the parse (the token text stays exact for integer extraction).
      (void)ptr;
    } else if (ec != std::errc{} || ptr != token.data() + token.size()) {
      pos_ = start;
      fail("invalid number");
      return {};
    }
    return JsonValue::make_number(std::move(token), value);
  }

  [[nodiscard]] int hex_digit(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  }

  // Parses "\uXXXX"'s four hex digits (cursor already past the 'u').
  std::uint32_t parse_hex4() {
    std::uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
      if (at_end()) {
        fail("unterminated \\u escape");
        return 0;
      }
      const int digit = hex_digit(peek());
      if (digit < 0) {
        fail("invalid hex digit in \\u escape");
        return 0;
      }
      code = code * 16 + static_cast<std::uint32_t>(digit);
      ++pos_;
    }
    return code;
  }

  static void append_utf8(std::string& out, std::uint32_t code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xc0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3f));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xe0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (code & 0x3f));
    } else {
      out += static_cast<char>(0xf0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (code & 0x3f));
    }
  }

  std::string parse_string() {
    ++pos_;  // opening quote
    std::string out;
    while (ok()) {
      if (at_end()) {
        fail("unterminated string");
        break;
      }
      const char c = peek();
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
        break;
      }
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      ++pos_;  // backslash
      if (at_end()) {
        fail("unterminated escape");
        break;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::uint32_t code = parse_hex4();
          if (!ok()) break;
          if (code >= 0xdc00 && code <= 0xdfff) {
            fail("lone low surrogate");
            break;
          }
          if (code >= 0xd800 && code <= 0xdbff) {
            // High surrogate: a \uDC00–\uDFFF low surrogate must follow.
            if (text_.substr(pos_, 2) != "\\u") {
              fail("high surrogate not followed by \\u low surrogate");
              break;
            }
            pos_ += 2;
            const std::uint32_t low = parse_hex4();
            if (!ok()) break;
            if (low < 0xdc00 || low > 0xdfff) {
              fail("high surrogate not followed by low surrogate");
              break;
            }
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
          }
          append_utf8(out, code);
          break;
        }
        default:
          pos_ -= 1;
          fail("invalid escape character");
          break;
      }
    }
    return {};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
  std::size_t error_offset_ = 0;
};

JsonParse parse_json(std::string_view text) { return JsonParser(text).run(); }

}  // namespace vlcsa::harness
