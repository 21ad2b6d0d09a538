#include "harness/report.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "arith/rng.hpp"

namespace vlcsa::harness {
namespace {

/// The byte-at-a-time escaper JsonObject used before it escaped in runs:
/// the oracle the single-pass renderer must match byte for byte.
std::string reference_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string printf_17g(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string rendered_double(double value) {
  JsonObject object;
  object.add("v", value);
  return object.render_line();
}

TEST(JsonEscape, QuotesBackslashesAndNamedControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line\nfeed\rtab\t"), "line\\nfeed\\rtab\\t");
}

TEST(JsonEscape, UnnamedControlCharactersUseUnicodeEscapes) {
  EXPECT_EQ(json_escape(std::string(1, '\0')), "\\u0000");
  EXPECT_EQ(json_escape("\x01\x1f"), "\\u0001\\u001f");
  EXPECT_EQ(json_escape("\b\f"), "\\u0008\\u000c");  // no named escape emitted
  // 0x20 and above pass through, including high bytes (UTF-8 sequences).
  EXPECT_EQ(json_escape(" ~"), " ~");
  EXPECT_EQ(json_escape("\xc3\xa9"), "\xc3\xa9");
}

TEST(JsonObject, WritesInsertionOrderAndTypes) {
  JsonObject object;
  object.add("s", "v\"q");
  object.add("u", std::uint64_t{18446744073709551615ull});
  object.add("i", -3);
  object.add("b", true);
  EXPECT_EQ(object.render_line(),
            "{\"s\": \"v\\\"q\", \"u\": 18446744073709551615, \"i\": -3, \"b\": true}");
  std::ostringstream os;
  object.write(os);
  EXPECT_EQ(os.str(),
            "{\n  \"s\": \"v\\\"q\",\n  \"u\": 18446744073709551615,\n  \"i\": -3,\n"
            "  \"b\": true\n}\n");
}

TEST(JsonObject, NonFiniteDoublesBecomeNull) {
  JsonObject object;
  object.add("nan", std::nan(""));
  object.add("inf", std::numeric_limits<double>::infinity());
  object.add("neg_inf", -std::numeric_limits<double>::infinity());
  object.add("finite", 0.5);
  EXPECT_EQ(object.render_line(),
            "{\"nan\": null, \"inf\": null, \"neg_inf\": null, \"finite\": 0.5}");
}

TEST(JsonObject, DoublesRenderAsPrintf17g) {
  const std::vector<double> edges = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      DBL_MIN,
      DBL_MAX,
      -DBL_MAX,
      0.1,
      1.0 / 3.0,
      9007199254740993.0,  // 2^53 + 1 (rounds to 2^53)
      1e16,
      1e17,
      1e-300,
      0.5,
      123456789.0,
      1e-5,
      1e-4,
  };
  for (const double value : edges) {
    EXPECT_EQ(rendered_double(value), "{\"v\": " + printf_17g(value) + "}") << printf_17g(value);
  }

  // Random bit patterns cover every exponent, subnormals and both signs.
  arith::BlockRng rng = arith::make_stream_rng(20, 1);
  int checked = 0;
  for (int i = 0; i < 100000; ++i) {
    const double value = std::bit_cast<double>(rng());
    if (!std::isfinite(value)) continue;
    ++checked;
    const std::string expected = "{\"v\": " + printf_17g(value) + "}";
    const std::string actual = rendered_double(value);
    if (actual != expected) {
      ADD_FAILURE() << "mismatch: " << actual << " vs " << expected;
      break;
    }
  }
  EXPECT_GT(checked, 99000);
}

TEST(JsonObject, EscapingMatchesTheByteAtATimeEscaper) {
  const std::vector<std::string> texts = {
      "",
      "plain",
      "\"",
      "\\",
      "say \"hi\" \\ back",
      "line\nfeed\rtab\t",
      std::string("nul\0mid", 7),
      "\x01\x1f",
      "\b\f\x7f",
      "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80",  // UTF-8 passes through
      "\"\\\n\r\t\x01\x1f\xc3\xa9",  // nothing but escapes and high bytes
      "trailing run after escape\t...",
  };
  for (const std::string& text : texts) {
    const std::string escaped = reference_escape(text);
    EXPECT_EQ(json_escape(text), escaped);

    JsonObject object;
    object.add(text, text);
    object.add("k", 1);
    EXPECT_EQ(object.render_line(),
              "{\"" + escaped + "\": \"" + escaped + "\", \"k\": 1}");
    std::ostringstream os;
    object.write(os);
    EXPECT_EQ(os.str(), "{\n  \"" + escaped + "\": \"" + escaped + "\",\n  \"k\": 1\n}\n");
  }
}

TEST(JsonObject, EscapesKeysToo) {
  JsonObject object;
  object.add("we\"ird\nkey", 1);
  EXPECT_EQ(object.render_line(), "{\"we\\\"ird\\nkey\": 1}");
}

TEST(JsonObject, AddJsonEmbedsRenderedValueVerbatim) {
  JsonObject record;
  record.add("samples", std::uint64_t{5});
  JsonObject response;
  response.add("status", "ok");
  response.add_json("record", record.render_line());
  EXPECT_EQ(response.render_line(), "{\"status\": \"ok\", \"record\": {\"samples\": 5}}");
}

TEST(JsonObject, EmptyObject) {
  JsonObject object;
  EXPECT_EQ(object.render_line(), "{}");
  std::ostringstream os;
  object.write(os);
  EXPECT_EQ(os.str(), "{\n}\n");
}

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer-name", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name        | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer-name | 22    |"), std::string::npos);
  EXPECT_NE(out.find("|-"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Format, Percent) {
  EXPECT_EQ(fmt_pct(0.0001), "0.01%");
  EXPECT_EQ(fmt_pct(0.2501), "25.01%");
  EXPECT_EQ(fmt_pct(0.5, 0), "50%");
}

TEST(Format, Fixed) {
  EXPECT_EQ(fmt_fixed(1.005, 2), "1.00");  // round-to-even banker-ish via printf
  EXPECT_EQ(fmt_fixed(2.5, 1), "2.5");
}

TEST(Format, DeltaPercent) {
  EXPECT_EQ(fmt_delta_pct(110.0, 100.0), "+10.0%");
  EXPECT_EQ(fmt_delta_pct(81.0, 100.0), "-19.0%");
  EXPECT_EQ(fmt_delta_pct(1.0, 0.0), "n/a");
}

TEST(Format, Scientific) { EXPECT_EQ(fmt_sci(0.000114), "1.14e-04"); }

TEST(BenchArgs, DefaultsAndOverrides) {
  const char* argv1[] = {"bench"};
  auto args = BenchArgs::parse(1, const_cast<char**>(argv1), 1000);
  EXPECT_EQ(args.samples, 1000u);
  EXPECT_EQ(args.seed, 1u);

  const char* argv2[] = {"bench", "--samples=5", "--seed=77"};
  args = BenchArgs::parse(3, const_cast<char**>(argv2), 1000);
  EXPECT_EQ(args.samples, 5u);
  EXPECT_EQ(args.seed, 77u);
}

TEST(BenchArgs, UnknownArgumentThrows) {
  // google-benchmark flags are unknown here too: the table benches are not
  // google-benchmark binaries, so such a flag is a typo'd invocation.
  for (const char* arg : {"--frobnicate", "--benchmark_filter=x"}) {
    const char* argv[] = {"bench", arg};
    EXPECT_THROW(BenchArgs::parse(2, const_cast<char**>(argv), 1), std::invalid_argument)
        << arg;
  }
}

TEST(BenchArgs, RejectsMalformedValuesStrictly) {
  // BenchArgs shares the strict cli.hpp parser: trailing garbage that the
  // old std::stoull-based parser silently accepted ("12x" -> 12) now throws.
  for (const char* arg : {"--samples=12x", "--samples=", "--samples=1e3", "--seed=-1",
                          "--threads=1.5", "--threads=2147483648", "--samples"}) {
    const char* argv[] = {"bench", arg};
    EXPECT_THROW(BenchArgs::parse(2, const_cast<char**>(argv), 1), std::invalid_argument)
        << arg;
  }
}

TEST(BenchArgs, ErrorNamesTheOffendingArgument) {
  const char* argv[] = {"bench", "--seed=abc"};
  try {
    BenchArgs::parse(2, const_cast<char**>(argv), 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("--seed"), std::string::npos) << error.what();
  }
}

TEST(BenchArgs, ParsesThreads) {
  const char* argv[] = {"bench", "--threads=8"};
  const auto args = BenchArgs::parse(2, const_cast<char**>(argv), 1);
  EXPECT_EQ(args.threads, 8);
}

TEST(Banner, ContainsArtifactAndDescription) {
  std::ostringstream os;
  print_banner(os, "Table 7.1", "error rates");
  EXPECT_NE(os.str().find("Table 7.1"), std::string::npos);
  EXPECT_NE(os.str().find("error rates"), std::string::npos);
}

}  // namespace
}  // namespace vlcsa::harness
