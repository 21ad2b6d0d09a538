// Tests for the adder_explorer argument parser (harness/cli.hpp): strict
// rejection of unknown flags and malformed values — a typo must produce a
// hard error naming the argument, never a silently ignored flag.

#include "harness/cli.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace vlcsa::harness {
namespace {

ExplorerParse parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"adder_explorer"};
  argv.insert(argv.end(), args.begin(), args.end());
  return parse_explorer_args(static_cast<int>(argv.size()), argv.data());
}

TEST(ExplorerCliTest, DefaultsWithNoArguments) {
  const auto result = parse({});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.options.design, "kogge-stone");
  EXPECT_EQ(result.options.width, 64);
  EXPECT_EQ(result.options.window, 0);
  EXPECT_EQ(result.options.samples, 0u);
  EXPECT_EQ(result.options.seed, 1u);
  EXPECT_EQ(result.options.threads, 0);
  EXPECT_EQ(result.options.path, EvalPath::kBatched);
  EXPECT_FALSE(result.options.show_help);
}

TEST(ExplorerCliTest, ParsesFullExperimentInvocation) {
  const auto result = parse({"--experiment=table7.1/n64", "--samples=500000", "--seed=42",
                             "--threads=8", "--batch=off", "--json=out.json"});
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.options.experiment, "table7.1/n64");
  EXPECT_EQ(result.options.samples, 500000u);
  EXPECT_EQ(result.options.seed, 42u);
  EXPECT_EQ(result.options.threads, 8);
  EXPECT_EQ(result.options.path, EvalPath::kScalar);
  EXPECT_EQ(result.options.json_path, "out.json");
}

TEST(ExplorerCliTest, ParsesBuildInvocation) {
  const auto result = parse({"--design=vlcsa2", "--width=128", "--window=13", "--chain=17",
                             "--verilog=v.v"});
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.options.design, "vlcsa2");
  EXPECT_EQ(result.options.width, 128);
  EXPECT_EQ(result.options.window, 13);
  EXPECT_EQ(result.options.chain, 17);
  EXPECT_EQ(result.options.verilog_path, "v.v");
}

TEST(ExplorerCliTest, ModeFlags) {
  EXPECT_TRUE(parse({"--help"}).options.show_help);
  EXPECT_TRUE(parse({"-h"}).options.show_help);
  EXPECT_TRUE(parse({"--list"}).options.list_designs);
  EXPECT_TRUE(parse({"--list-experiments"}).options.list_experiments);
}

TEST(ExplorerCliTest, RejectsUnknownFlagNamingIt) {
  const auto result = parse({"--widht=64"});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("--widht=64"), std::string::npos) << result.error;
  EXPECT_NE(result.error.find("unknown argument"), std::string::npos) << result.error;
}

TEST(ExplorerCliTest, RejectsUnknownBareWord) {
  const auto result = parse({"table7.1/n64"});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("table7.1/n64"), std::string::npos);
}

TEST(ExplorerCliTest, RejectsValueFlagWithoutValue) {
  const auto result = parse({"--samples"});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("--samples"), std::string::npos);
}

TEST(ExplorerCliTest, RejectsNonNumericNumbers) {
  EXPECT_FALSE(parse({"--samples=abc"}).ok());
  EXPECT_FALSE(parse({"--samples=12x"}).ok());  // trailing garbage
  EXPECT_FALSE(parse({"--samples="}).ok());
  EXPECT_FALSE(parse({"--width=-3"}).ok());
  EXPECT_FALSE(parse({"--threads=1.5"}).ok());
  EXPECT_FALSE(parse({"--seed=0x10"}).ok());
}

TEST(ExplorerCliTest, RejectsBadBatchValue) {
  const auto result = parse({"--experiment=x", "--batch=maybe"});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("--batch"), std::string::npos);
  EXPECT_TRUE(parse({"--experiment=x", "--batch=on"}).ok());
  EXPECT_EQ(parse({"--experiment=x", "--batch=on"}).options.path, EvalPath::kBatched);
  EXPECT_EQ(parse({"--experiment=x", "--batch=off"}).options.path, EvalPath::kScalar);
}

TEST(ExplorerCliTest, BatchAcceptsCanonicalEvalPathNames) {
  // The service protocol's eval_path spelling works everywhere.
  EXPECT_EQ(parse({"--experiment=x", "--batch=batched"}).options.path, EvalPath::kBatched);
  EXPECT_EQ(parse({"--experiment=x", "--batch=scalar"}).options.path, EvalPath::kScalar);
  EXPECT_TRUE(parse({"--experiment=x", "--batch=scalar"}).options.path_explicit);
}

TEST(ParseValueFlagsTest, MatchesStoresAndRejects) {
  std::string name;
  int count = 0;
  const std::vector<ValueFlag> flags = {
      {"--name",
       [&name](const std::string& value) {
         name = value;
         return !value.empty();
       }},
      {"--count", [&count](const std::string& value) { return parse_nonnegative_int(value, count); }},
  };
  const char* good[] = {"tool", "--name=x", "--count=3"};
  EXPECT_EQ(parse_value_flags(3, good, flags), "");
  EXPECT_EQ(name, "x");
  EXPECT_EQ(count, 3);

  for (const char* arg : {"--nmae=x", "--benchmark_filter=x"}) {
    const char* unknown[] = {"tool", arg};
    EXPECT_NE(parse_value_flags(2, unknown, flags).find(std::string("unknown argument: ") + arg),
              std::string::npos);
  }

  const char* bad_value[] = {"tool", "--count=x"};
  EXPECT_NE(parse_value_flags(2, bad_value, flags).find("invalid value for --count"),
            std::string::npos);

  const char* missing_value[] = {"tool", "--count"};
  EXPECT_NE(parse_value_flags(2, missing_value, flags).find("requires a value"),
            std::string::npos);
}

TEST(ParseValueFlagsTest, PrefixOfAFlagNameIsNotAMatch) {
  int count = 0;
  const std::vector<ValueFlag> flags = {
      {"--count", [&count](const std::string& value) { return parse_nonnegative_int(value, count); }},
  };
  const char* argv[] = {"tool", "--counts=3"};
  EXPECT_NE(parse_value_flags(2, argv, flags).find("unknown argument"), std::string::npos);
}

TEST(ExplorerCliTest, RejectsExperimentFlagsInBuildMode) {
  // Without --experiment these flags would be silently dead — hard error.
  for (const char* arg : {"--samples=10", "--seed=2", "--threads=4", "--batch=off",
                          "--json=out.json"}) {
    const auto result = parse({arg});
    ASSERT_FALSE(result.ok()) << arg;
    EXPECT_NE(result.error.find("--experiment"), std::string::npos) << result.error;
  }
}

TEST(ExplorerCliTest, RejectsBuildFlagsInExperimentMode) {
  // Experiments take their shape from the registry; a --width here would be
  // silently ignored, so it is rejected instead.
  for (const char* arg : {"--design=vlcsa1", "--width=128", "--window=9", "--chain=12",
                          "--verilog=v.v"}) {
    const auto result = parse({"--experiment=table7.1/n64", arg});
    ASSERT_FALSE(result.ok()) << arg;
    EXPECT_NE(result.error.find("no effect with --experiment"), std::string::npos)
        << result.error;
  }
}

TEST(ExplorerCliTest, InformationalModesTolerateOtherFlags) {
  EXPECT_TRUE(parse({"--list", "--samples=10"}).ok());
  EXPECT_TRUE(parse({"--help", "--width=32"}).ok());
}

TEST(ExplorerCliTest, RejectsEmptyStringValues) {
  EXPECT_FALSE(parse({"--design="}).ok());
  EXPECT_FALSE(parse({"--experiment="}).ok());
  EXPECT_FALSE(parse({"--json="}).ok());
}

TEST(StrictNumberParseTest, U64FullStringOnly) {
  std::uint64_t value = 0;
  EXPECT_TRUE(parse_u64("0", value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(parse_u64("18446744073709551615", value));
  EXPECT_EQ(value, 18446744073709551615ull);
  EXPECT_FALSE(parse_u64("18446744073709551616", value));  // overflow
  EXPECT_FALSE(parse_u64("", value));
  EXPECT_FALSE(parse_u64("-1", value));
  EXPECT_FALSE(parse_u64(" 1", value));
  EXPECT_FALSE(parse_u64("1 ", value));
  EXPECT_FALSE(parse_u64("1e3", value));
}

TEST(StrictNumberParseTest, IntRangeChecked) {
  int value = 0;
  EXPECT_TRUE(parse_nonnegative_int("2147483647", value));
  EXPECT_EQ(value, 2147483647);
  EXPECT_FALSE(parse_nonnegative_int("2147483648", value));
  EXPECT_FALSE(parse_nonnegative_int("-1", value));
}

TEST(ParseHostPortTest, SplitsOnTheLastColonAndRangeChecksThePort) {
  std::string host;
  int port = -1;
  EXPECT_TRUE(parse_host_port("127.0.0.1:7411", host, port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 7411);
  EXPECT_TRUE(parse_host_port("::1:7411", host, port));  // last colon splits
  EXPECT_EQ(host, "::1");
  EXPECT_EQ(port, 7411);
  EXPECT_TRUE(parse_host_port("localhost:0", host, port));  // 0 = ephemeral
  EXPECT_EQ(port, 0);
  EXPECT_TRUE(parse_host_port("localhost:65535", host, port));
  EXPECT_EQ(port, 65535);

  host = "unchanged";
  port = 1;
  for (const char* bad : {"localhost", "localhost:", ":7411", "localhost:65536",
                          "localhost:-1", "localhost:74x1", ""}) {
    EXPECT_FALSE(parse_host_port(bad, host, port)) << bad;
  }
  EXPECT_EQ(host, "unchanged");  // outputs untouched on failure
  EXPECT_EQ(port, 1);
}

}  // namespace
}  // namespace vlcsa::harness
