// Tests for the command-line argument parser.
#include <gtest/gtest.h>

#include <array>

#include "util/args.hpp"

namespace reghd::util {
namespace {

Args parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgsTest, ProgramName) {
  const Args args = parse({});
  EXPECT_EQ(args.program(), "prog");
}

TEST(ArgsTest, KeyValueSpaceForm) {
  const Args args = parse({"--dim", "4096"});
  EXPECT_TRUE(args.has("dim"));
  EXPECT_EQ(args.get_int("dim", 0), 4096);
}

TEST(ArgsTest, KeyValueEqualsForm) {
  const Args args = parse({"--alpha=0.15"});
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 0.15);
}

TEST(ArgsTest, BareFlagIsTrue) {
  const Args args = parse({"--verbose"});
  EXPECT_TRUE(args.get_bool("verbose", false));
}

TEST(ArgsTest, FirstUnknownNamesAnOptionOutsideTheKnownSet) {
  const Args args = parse({"--dim", "64", "--quantized", "--encoder=nonlinear"});
  const std::array<std::string_view, 2> known = {"dim", "quantized"};
  EXPECT_EQ(args.first_unknown(known), "encoder");
  const std::array<std::string_view, 3> all = {"dim", "quantized", "encoder"};
  EXPECT_EQ(args.first_unknown(all), std::nullopt);
}

TEST(ArgsTest, MissingOptionFallsBack) {
  const Args args = parse({});
  EXPECT_EQ(args.get_int("dim", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 1.5), 1.5);
  EXPECT_EQ(args.get_string("name", "fallback"), "fallback");
  EXPECT_FALSE(args.get_bool("verbose", false));
  EXPECT_FALSE(args.has("dim"));
}

TEST(ArgsTest, BooleanValueForms) {
  EXPECT_TRUE(parse({"--x=true"}).get_bool("x", false));
  EXPECT_TRUE(parse({"--x=1"}).get_bool("x", false));
  EXPECT_TRUE(parse({"--x=on"}).get_bool("x", false));
  EXPECT_FALSE(parse({"--x=false"}).get_bool("x", true));
  EXPECT_FALSE(parse({"--x=0"}).get_bool("x", true));
  EXPECT_FALSE(parse({"--x=off"}).get_bool("x", true));
}

TEST(ArgsTest, PositionalArgumentsKeptInOrder) {
  const Args args = parse({"first", "--k", "3", "second"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "first");
  EXPECT_EQ(args.positional()[1], "second");
  EXPECT_EQ(args.get_int("k", 0), 3);
}

TEST(ArgsTest, FlagFollowedByOptionIsBare) {
  const Args args = parse({"--quiet", "--dim", "64"});
  EXPECT_TRUE(args.get_bool("quiet", false));
  EXPECT_EQ(args.get_int("dim", 0), 64);
}

TEST(ArgsTest, MalformedNumbersThrow) {
  EXPECT_THROW((void)parse({"--dim", "abc"}).get_int("dim", 0), std::invalid_argument);
  EXPECT_THROW((void)parse({"--a", "1.5x"}).get_double("a", 0.0), std::invalid_argument);
  EXPECT_THROW((void)parse({"--b", "maybe"}).get_bool("b", false), std::invalid_argument);
}

TEST(ArgsTest, NegativeNumbersParse) {
  const Args args = parse({"--offset=-5"});
  EXPECT_EQ(args.get_int("offset", 0), -5);
}

TEST(ArgsTest, BareDoubleDashRejected) {
  EXPECT_THROW(parse({"--"}), std::invalid_argument);
}

TEST(ArgsTest, LastOccurrenceWins) {
  const Args args = parse({"--k=1", "--k=2"});
  EXPECT_EQ(args.get_int("k", 0), 2);
}

}  // namespace
}  // namespace reghd::util
