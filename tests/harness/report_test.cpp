#include "harness/report.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

namespace vlcsa::harness {
namespace {

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
