// Tests for the strict JSON parser (harness/json.hpp): RFC 8259 grammar
// edges, strictness (duplicate keys, trailing garbage, control characters,
// lone surrogates, depth), exact integer extraction, and a randomized
// writer→parser round-trip fuzz over JsonObject records — the property the
// service protocol and result cache rely on.

#include "harness/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>

#include "harness/report.hpp"

namespace vlcsa::harness {
namespace {

JsonValue parse_ok(const std::string& text) {
  JsonParse parse = parse_json(text);
  EXPECT_TRUE(parse.ok()) << text << " -> " << parse.error;
  return parse.value;
}

std::string parse_error(const std::string& text) {
  const JsonParse parse = parse_json(text);
  EXPECT_FALSE(parse.ok()) << text << " unexpectedly parsed";
  return parse.error;
}

TEST(JsonParser, Scalars) {
  EXPECT_EQ(parse_ok("null").kind(), JsonValue::Kind::kNull);
  EXPECT_TRUE(parse_ok("true").as_bool());
  EXPECT_FALSE(parse_ok("false").as_bool());
  EXPECT_DOUBLE_EQ(parse_ok("0").as_double(), 0.0);
  EXPECT_DOUBLE_EQ(parse_ok("-12").as_double(), -12.0);
  EXPECT_DOUBLE_EQ(parse_ok("0.25").as_double(), 0.25);
  EXPECT_DOUBLE_EQ(parse_ok("1e3").as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(parse_ok("-2.5E-2").as_double(), -0.025);
  EXPECT_EQ(parse_ok("\"hi\"").as_string(), "hi");
}

TEST(JsonParser, WhitespaceAroundValue) {
  EXPECT_EQ(parse_ok(" \t\r\n 7 \n").as_double(), 7.0);
}

TEST(JsonParser, NumberGrammarIsStrict) {
  parse_error("01");      // leading zero
  parse_error("+1");      // leading plus
  parse_error(".5");      // bare fraction
  parse_error("1.");      // digit required after point
  parse_error("1e");      // digit required in exponent
  parse_error("0x10");    // no hex
  parse_error("NaN");     // not JSON
  parse_error("Infinity");
  parse_error("-");
}

TEST(JsonParser, NumberTokenPreserved) {
  EXPECT_EQ(parse_ok("18446744073709551615").number_text(), "18446744073709551615");
  EXPECT_EQ(parse_ok("1e3").number_text(), "1e3");
}

TEST(JsonParser, ExactU64Extraction) {
  std::uint64_t value = 0;
  EXPECT_TRUE(parse_ok("0").to_u64(value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(parse_ok("18446744073709551615").to_u64(value));
  EXPECT_EQ(value, std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(parse_ok("18446744073709551616").to_u64(value));  // overflow
  EXPECT_FALSE(parse_ok("-1").to_u64(value));
  EXPECT_FALSE(parse_ok("1.0").to_u64(value));   // not written as an integer
  EXPECT_FALSE(parse_ok("1e3").to_u64(value));   // ditto
  EXPECT_FALSE(parse_ok("\"1\"").to_u64(value)); // wrong kind
}

TEST(JsonParser, StringEscapes) {
  EXPECT_EQ(parse_ok(R"("a\"b\\c\/d\b\f\n\r\t")").as_string(), "a\"b\\c/d\b\f\n\r\t");
  EXPECT_EQ(parse_ok(R"("\u0041")").as_string(), "A");
  EXPECT_EQ(parse_ok(R"("\u00e9")").as_string(), "\xc3\xa9");      // 2-byte UTF-8
  EXPECT_EQ(parse_ok(R"("\u20ac")").as_string(), "\xe2\x82\xac");  // 3-byte UTF-8
  EXPECT_EQ(parse_ok(R"("\ud83d\ude00")").as_string(),
            "\xf0\x9f\x98\x80");  // surrogate pair, 4-byte UTF-8
  EXPECT_EQ(parse_ok(R"("\u0000")").as_string(), std::string(1, '\0'));
  EXPECT_EQ(parse_ok("\"caf\xc3\xa9\"").as_string(), "caf\xc3\xa9");  // raw UTF-8 passthrough
}

TEST(JsonParser, StringStrictness) {
  parse_error("\"unterminated");
  parse_error("\"bad\\x escape\"");
  parse_error("\"ctrl\nchar\"");           // raw control character
  parse_error(R"("\ud83d")");              // lone high surrogate
  parse_error(R"("\ude00")");              // lone low surrogate
  parse_error(R"("\ud83dx")");             // high surrogate not followed by \u
  parse_error(R"("\ud83dA")");        // high surrogate + non-surrogate
  parse_error(R"("\u12")");                // truncated hex
}

TEST(JsonParser, Arrays) {
  const JsonValue value = parse_ok("[1, \"two\", [true], {}]");
  ASSERT_EQ(value.items().size(), 4u);
  EXPECT_EQ(value.items()[0].as_double(), 1.0);
  EXPECT_EQ(value.items()[1].as_string(), "two");
  EXPECT_TRUE(value.items()[2].items()[0].as_bool());
  EXPECT_EQ(value.items()[3].kind(), JsonValue::Kind::kObject);
  EXPECT_TRUE(parse_ok("[]").items().empty());
  parse_error("[1,]");
  parse_error("[1 2]");
  parse_error("[");
}

TEST(JsonParser, ObjectsPreserveOrderAndFind) {
  const JsonValue value = parse_ok(R"({"b": 1, "a": {"nested": true}})");
  ASSERT_EQ(value.members().size(), 2u);
  EXPECT_EQ(value.members()[0].first, "b");
  EXPECT_EQ(value.members()[1].first, "a");
  ASSERT_NE(value.find("a"), nullptr);
  EXPECT_TRUE(value.find("a")->find("nested")->as_bool());
  EXPECT_EQ(value.find("missing"), nullptr);
  EXPECT_TRUE(parse_ok("{}").members().empty());
}

TEST(JsonParser, ObjectStrictness) {
  parse_error(R"({"a": 1, "a": 2})");  // duplicate key
  parse_error(R"({"a" 1})");
  parse_error(R"({"a": 1,})");
  parse_error(R"({1: 2})");
  parse_error("{");
}

/// Structural equality of two values (numbers compare by source token).
bool json_equal(const JsonValue& a, const JsonValue& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case JsonValue::Kind::kNull: return true;
    case JsonValue::Kind::kBool: return a.as_bool() == b.as_bool();
    case JsonValue::Kind::kNumber: return a.number_text() == b.number_text();
    case JsonValue::Kind::kString: return a.as_string() == b.as_string();
    case JsonValue::Kind::kArray:
      if (a.items().size() != b.items().size()) return false;
      for (std::size_t i = 0; i < a.items().size(); ++i) {
        if (!json_equal(a.items()[i], b.items()[i])) return false;
      }
      return true;
    case JsonValue::Kind::kObject:
      if (a.members().size() != b.members().size()) return false;
      for (std::size_t i = 0; i < a.members().size(); ++i) {
        if (a.members()[i].first != b.members()[i].first ||
            !json_equal(a.members()[i].second, b.members()[i].second)) {
          return false;
        }
      }
      return true;
  }
  return false;
}

/// Every value in the tree: its source range re-parses to an equal value.
void expect_sources_reparse(const JsonValue& value, const std::string& text) {
  const std::string source(value.source(text));
  const JsonParse reparsed = parse_json(source);
  ASSERT_TRUE(reparsed.ok()) << "'" << source << "' -> " << reparsed.error;
  EXPECT_TRUE(json_equal(reparsed.value, value)) << source;
  if (value.kind() == JsonValue::Kind::kArray) {
    for (const JsonValue& item : value.items()) expect_sources_reparse(item, text);
  } else if (value.kind() == JsonValue::Kind::kObject) {
    for (const auto& [key, member] : value.members()) expect_sources_reparse(member, text);
  }
}

TEST(JsonParser, SourceRangesAreTheValuesExactBytes) {
  // Strings holding closers and escapes, whitespace around every token,
  // nested containers, numbers and literals.
  const std::string text =
      " \t{\"a\" :  {\"b\": [1, {\"c\": null}], \"s\": \"}]\\\"\\\\{[\"} ,\n"
      "  \"list\": [ [ ] , { } , -1.5e3 ,true,false ] , \"n\":0 }\r\n ";
  const JsonValue value = parse_ok(text);
  const std::string body = text.substr(2, text.size() - 5);
  EXPECT_EQ(value.source(text), body);
  const JsonValue& a = *value.find("a");
  EXPECT_EQ(a.source(text), R"({"b": [1, {"c": null}], "s": "}]\"\\{["})");
  EXPECT_EQ(a.find("b")->source(text), R"([1, {"c": null}])");
  EXPECT_EQ(a.find("b")->items()[1].source(text), R"({"c": null})");
  EXPECT_EQ(a.find("b")->items()[1].find("c")->source(text), "null");
  EXPECT_EQ(a.find("s")->source(text), R"("}]\"\\{[")");
  EXPECT_EQ(a.find("s")->as_string(), "}]\"\\{[");
  const JsonValue& list = *value.find("list");
  EXPECT_EQ(list.source(text), "[ [ ] , { } , -1.5e3 ,true,false ]");
  ASSERT_EQ(list.items().size(), 5u);
  EXPECT_EQ(list.items()[0].source(text), "[ ]");
  EXPECT_EQ(list.items()[1].source(text), "{ }");
  EXPECT_EQ(list.items()[2].source(text), "-1.5e3");
  EXPECT_EQ(list.items()[3].source(text), "true");
  EXPECT_EQ(list.items()[4].source(text), "false");
  EXPECT_EQ(value.find("n")->source(text), "0");
  expect_sources_reparse(value, text);
}

TEST(JsonParser, SourceRangesSurviveRenderedRecords) {
  // The sweep's use: a JsonObject-rendered record embedded in an envelope
  // comes back out byte-identical by its range.
  JsonObject record;
  record.add("experiment", "table7.1/n64");
  record.add("label", "quote \" brace } bracket ] backslash \\");
  record.add("rate", 0.125);
  record.add("count", std::uint64_t{18446744073709551615ull});
  JsonObject envelope;
  envelope.add("status", "ok");
  envelope.add_json("record", record.render_line());
  const std::string text = envelope.render_line();
  const JsonValue value = parse_ok(text);
  EXPECT_EQ(value.find("record")->source(text), record.render_line());
  expect_sources_reparse(value, text);
}

TEST(JsonParser, BuiltValuesHaveEmptySource) {
  EXPECT_EQ(JsonValue::make_string("x").source("anything"), "");
  EXPECT_EQ(JsonValue().source("null"), "");
}

TEST(JsonParser, TrailingGarbageRejected) {
  parse_error("{} x");
  parse_error("1 2");
  parse_error("truefalse");
  parse_error("");
  parse_error("   ");
}

TEST(JsonParser, DepthLimited) {
  std::string deep;
  for (int i = 0; i < kMaxJsonDepth + 2; ++i) deep += "[";
  const std::string error = parse_error(deep);
  EXPECT_NE(error.find("nesting"), std::string::npos);
  // One below the limit still parses.
  std::string fine;
  for (int i = 0; i < kMaxJsonDepth - 1; ++i) fine += "[";
  fine += "1";
  for (int i = 0; i < kMaxJsonDepth - 1; ++i) fine += "]";
  parse_ok(fine);
}

TEST(JsonParser, WrongKindAccessorsThrow) {
  const JsonValue value = parse_ok("1");
  EXPECT_THROW((void)value.as_string(), std::logic_error);
  EXPECT_THROW((void)value.as_bool(), std::logic_error);
  EXPECT_THROW((void)value.items(), std::logic_error);
  EXPECT_THROW((void)value.members(), std::logic_error);
  EXPECT_EQ(value.find("x"), nullptr);  // find is lenient: nullptr, not throw
}

TEST(JsonParser, ParsesJsonObjectPrettyOutput) {
  JsonObject object;
  object.add("name", "table7.1/n64");
  object.add("samples", std::uint64_t{200000});
  object.add("rate", 0.2501);
  std::ostringstream os;
  object.write(os);
  const JsonValue value = parse_ok(os.str());
  EXPECT_EQ(value.find("name")->as_string(), "table7.1/n64");
  std::uint64_t samples = 0;
  EXPECT_TRUE(value.find("samples")->to_u64(samples));
  EXPECT_EQ(samples, 200000u);
  EXPECT_DOUBLE_EQ(value.find("rate")->as_double(), 0.2501);
}

// Writer→parser round-trip fuzz: randomized flat records through
// JsonObject::render_line() must parse back to exactly the written values —
// strings byte-for-byte (including control characters and quotes), u64
// counters exactly, doubles bit-exactly (%.17g round-trips IEEE doubles).
TEST(JsonRoundTrip, RandomizedRecords) {
  std::mt19937_64 rng(20260728);
  const auto random_string = [&rng] {
    std::uniform_int_distribution<int> length(0, 24);
    std::uniform_int_distribution<int> byte(0, 255);
    std::string out;
    const int n = length(rng);
    for (int i = 0; i < n; ++i) {
      // Bias toward the troublesome range: controls, quotes, backslashes.
      const int roll = byte(rng);
      if (roll < 32) {
        out += static_cast<char>(roll);  // control chars
      } else if (roll < 64) {
        out += (roll % 2 == 0) ? '"' : '\\';
      } else {
        out += static_cast<char>('a' + roll % 26);
      }
    }
    return out;
  };

  for (int iteration = 0; iteration < 200; ++iteration) {
    JsonObject record;
    std::vector<std::string> keys;
    std::vector<int> kinds;
    std::vector<std::string> strings;
    std::vector<std::uint64_t> integers;
    std::vector<double> doubles;
    std::vector<bool> bools;

    std::uniform_int_distribution<int> field_count(1, 8);
    std::uniform_int_distribution<int> kind(0, 3);
    const int fields = field_count(rng);
    for (int f = 0; f < fields; ++f) {
      // Keys must be unique (the parser rejects duplicates by design).
      const std::string key = "k" + std::to_string(f) + random_string();
      bool duplicate = false;
      for (const auto& existing : keys) duplicate = duplicate || existing == key;
      if (duplicate) continue;
      keys.push_back(key);
      kinds.push_back(kind(rng));
      switch (kinds.back()) {
        case 0: {
          strings.push_back(random_string());
          record.add(key, strings.back());
          break;
        }
        case 1: {
          integers.push_back(rng());
          record.add(key, integers.back());
          break;
        }
        case 2: {
          // Finite doubles across magnitudes, sign included.
          const double mantissa =
              std::uniform_real_distribution<double>(-1.0, 1.0)(rng);
          const int exponent = std::uniform_int_distribution<int>(-300, 300)(rng);
          doubles.push_back(std::ldexp(mantissa, exponent % 60) * std::pow(10.0, exponent / 60));
          record.add(key, doubles.back());
          break;
        }
        default: {
          bools.push_back((rng() & 1) != 0);
          record.add(key, bools.back());
          break;
        }
      }
    }

    const std::string line = record.render_line();
    const JsonParse parse = parse_json(line);
    ASSERT_TRUE(parse.ok()) << line << " -> " << parse.error;
    ASSERT_EQ(parse.value.members().size(), keys.size()) << line;

    std::size_t string_index = 0, integer_index = 0, double_index = 0, bool_index = 0;
    for (std::size_t f = 0; f < keys.size(); ++f) {
      const JsonValue* field = parse.value.find(keys[f]);
      ASSERT_NE(field, nullptr) << "missing key in " << line;
      switch (kinds[f]) {
        case 0:
          EXPECT_EQ(field->as_string(), strings[string_index++]);
          break;
        case 1: {
          std::uint64_t value = 0;
          ASSERT_TRUE(field->to_u64(value)) << line;
          EXPECT_EQ(value, integers[integer_index++]);
          break;
        }
        case 2:
          EXPECT_EQ(field->as_double(), doubles[double_index++]) << line;
          break;
        default:
          EXPECT_EQ(field->as_bool(), bools[bool_index] != false);
          ++bool_index;
          break;
      }
    }
  }
}

}  // namespace
}  // namespace vlcsa::harness
