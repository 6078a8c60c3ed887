// CLI flag parsing/validation (src/util/cli): the strict checks behind
// deflatectl's one-line errors — unknown flags, malformed numbers,
// out-of-range values and conflicting combinations must never be silently
// replaced by defaults.
#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace util = deflate::util;

namespace {

util::CliArgs parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"deflatectl"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return util::parse_cli(static_cast<int>(argv.size()), argv.data());
}

}  // namespace

TEST(Cli, ParsesFlagsPositionalsAndBooleans) {
  const util::CliArgs args =
      parse({"revoke-sim", "--in", "t.csv", "--partitioned", "--servers", "40"});
  ASSERT_EQ(args.positional.size(), 1U);
  EXPECT_EQ(args.positional[0], "revoke-sim");
  EXPECT_EQ(args.get("in", ""), "t.csv");
  EXPECT_TRUE(args.has("partitioned"));
  EXPECT_EQ(args.get("partitioned", ""), "1");
  EXPECT_DOUBLE_EQ(args.get_double("servers", 0), 40.0);
  EXPECT_DOUBLE_EQ(args.get_double("absent", 7.5), 7.5);
}

TEST(Cli, NegativeValuesParseAsFlagValues) {
  // "-5" does not start with "--": it is the flag's value, not a flag.
  const util::CliArgs args = parse({"--migration-bandwidth", "-5"});
  EXPECT_DOUBLE_EQ(args.get_double("migration-bandwidth", 0), -5.0);
}

TEST(Cli, MalformedNumberThrowsWithFlagName) {
  const util::CliArgs args = parse({"--servers", "forty"});
  try {
    static_cast<void>(args.get_double("servers", 0));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("--servers"), std::string::npos);
  }
}

TEST(CliValidator, UnknownFlagIsAnErrorNotADefault) {
  const util::CliArgs args = parse({"--markts", "3", "--in", "t.csv"});
  util::CliValidator validator(args);
  validator.allow_only({"in", "markets"});
  ASSERT_EQ(validator.errors().size(), 1U);
  EXPECT_NE(validator.errors()[0].find("unknown flag --markts"),
            std::string::npos);
}

TEST(CliValidator, RangeAndSignChecks) {
  const util::CliArgs args = parse({"--migration-bandwidth", "-5",
                                    "--correlation", "1.5", "--markets",
                                    "2.5"});
  util::CliValidator validator(args);
  validator.require_at_least("migration-bandwidth", 0.0)
      .require_in_range("correlation", -1.0, 1.0)
      .require_integer_in_range("markets", 1, 1000);
  EXPECT_EQ(validator.errors().size(), 3U);
  EXPECT_FALSE(validator.ok());
}

TEST(CliValidator, IntegerFlagsAreBoundedAbove) {
  // A finite huge value must be refused before it reaches an integer
  // cast, where it would be undefined behaviour.
  const util::CliArgs args =
      parse({"--seed", "1e30", "--servers", "2.5", "--shards", "4"});
  util::CliValidator validator(args);
  validator
      .require_integer_in_range("seed", 0, util::flag_limits::kMaxSeed)
      .require_integer_in_range("servers", 1, util::flag_limits::kMaxServers)
      .require_integer_in_range("shards", 1, util::flag_limits::kMaxServers);
  ASSERT_EQ(validator.errors().size(), 2U);
  EXPECT_EQ(validator.errors()[0],
            "flag --seed: must be in [0, 9007199254740992], got 1e30");
  EXPECT_EQ(validator.errors()[1],
            "flag --servers: must be a whole number, got 2.5");
}

TEST(CliValidator, MalformedNumberIsReportedOnceNotRangeChecked) {
  const util::CliArgs args = parse({"--rate", "fast"});
  util::CliValidator validator(args);
  validator.require_at_least("rate", 0.0);
  ASSERT_EQ(validator.errors().size(), 1U);
  EXPECT_NE(validator.errors()[0].find("expected a finite number"),
            std::string::npos);
}

TEST(CliValidator, NonFiniteNumbersAreRejected) {
  // strtod parses all four; each must fail like a malformed number, or a
  // NaN would pass every range check and an infinity would reach integer
  // casts such as the daemon's port.
  for (const char* text : {"nan", "inf", "-inf", "1e999"}) {
    SCOPED_TRACE(text);
    const util::CliArgs args = parse({"--port", text});
    util::CliValidator validator(args);
    validator.require_at_least("port", 0.0).require_in_range("port", 0, 65535);
    ASSERT_EQ(validator.errors().size(), 2U);
    for (const std::string& error : validator.errors()) {
      EXPECT_NE(error.find("--port: expected a finite number"),
                std::string::npos)
          << error;
    }
    EXPECT_THROW(static_cast<void>(args.get_double("port", 0)),
                 std::invalid_argument);
  }
}

TEST(CliValidator, ConflictingCombinationsAreRejected) {
  // --correlation without --markets: a single market has no pairwise
  // correlation to configure.
  const util::CliArgs args = parse({"--correlation", "0.5"});
  util::CliValidator validator(args);
  validator
      .require_together("correlation", "markets", "needs several markets")
      .check(!args.has("correlation") || args.get_double("markets", 1) >= 2,
             "flag --correlation needs --markets >= 2");
  EXPECT_EQ(validator.errors().size(), 2U);
}

TEST(CliValidator, ValidFlagSetPassesEveryCheck) {
  const util::CliArgs args = parse({"--in", "t.csv", "--markets", "3",
                                    "--correlation", "0.35",
                                    "--migration-bandwidth", "256"});
  util::CliValidator validator(args);
  validator
      .allow_only({"in", "markets", "correlation", "migration-bandwidth"})
      .require_integer_in_range("markets", 1, 1000)
      .require_in_range("correlation", -1.0, 1.0)
      .require_at_least("migration-bandwidth", 0.0)
      .require_together("correlation", "markets", "needs several markets");
  EXPECT_TRUE(validator.ok()) << validator.errors().empty()
                              << " unexpected errors";
}

TEST(CliValidator, AbsentFlagsAreNeverChecked) {
  const util::CliArgs args = parse({"--in", "t.csv"});
  util::CliValidator validator(args);
  validator.require_at_least("rate", 0.0)
      .require_in_range("correlation", -1.0, 1.0)
      .require_integer_in_range("markets", 1, 1000);
  EXPECT_TRUE(validator.ok());
}
