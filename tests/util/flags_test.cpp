#include "util/flags.hpp"

#include <gtest/gtest.h>

namespace diners::util {
namespace {

Flags standard_flags() {
  Flags f;
  f.define("n", "8", "node count")
      .define("rate", "0.5", "appetite rate")
      .define("verbose", "false", "chatty output")
      .define("daemon", "round-robin", "scheduler");
  return f;
}

TEST(Flags, DefaultsApply) {
  Flags f = standard_flags();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(f.parse(1, argv));
  EXPECT_EQ(f.i64("n"), 8);
  EXPECT_DOUBLE_EQ(f.f64("rate"), 0.5);
  EXPECT_FALSE(f.flag("verbose"));
  EXPECT_EQ(f.str("daemon"), "round-robin");
}

TEST(Flags, EqualsSyntax) {
  Flags f = standard_flags();
  const char* argv[] = {"prog", "--n=32", "--daemon=random"};
  ASSERT_TRUE(f.parse(3, argv));
  EXPECT_EQ(f.i64("n"), 32);
  EXPECT_EQ(f.str("daemon"), "random");
}

TEST(Flags, SpaceSyntax) {
  Flags f = standard_flags();
  const char* argv[] = {"prog", "--n", "64"};
  ASSERT_TRUE(f.parse(3, argv));
  EXPECT_EQ(f.i64("n"), 64);
}

TEST(Flags, BareBooleanSetsTrue) {
  Flags f = standard_flags();
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(f.parse(2, argv));
  EXPECT_TRUE(f.flag("verbose"));
}

TEST(Flags, NoPrefixNegates) {
  Flags f;
  f.define("color", "true", "");
  const char* argv[] = {"prog", "--no-color"};
  ASSERT_TRUE(f.parse(2, argv));
  EXPECT_FALSE(f.flag("color"));
}

TEST(Flags, UnknownFlagFails) {
  Flags f = standard_flags();
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_FALSE(f.parse(2, argv));
}

TEST(Flags, HelpReturnsFalse) {
  Flags f = standard_flags();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(f.parse(2, argv));
}

TEST(Flags, PositionalCollected) {
  Flags f = standard_flags();
  const char* argv[] = {"prog", "one", "--n=2", "two"};
  ASSERT_TRUE(f.parse(4, argv));
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "one");
  EXPECT_EQ(f.positional()[1], "two");
}

TEST(Flags, UndefinedLookupThrows) {
  Flags f = standard_flags();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(f.parse(1, argv));
  EXPECT_THROW((void)f.str("nope"), std::out_of_range);
}

TEST(Flags, MissingValueFails) {
  Flags f = standard_flags();
  const char* argv[] = {"prog", "--n"};
  EXPECT_FALSE(f.parse(2, argv));
}

TEST(Flags, NumericAccessorsRejectTrailingGarbage) {
  Flags f = standard_flags();
  const char* argv[] = {"prog", "--n=123abc", "--rate=0.5x"};
  ASSERT_TRUE(f.parse(3, argv));  // lexing succeeds; typed access throws
  EXPECT_THROW((void)f.i64("n"), FlagError);
  EXPECT_THROW((void)f.u64("n"), FlagError);
  EXPECT_THROW((void)f.u32("n"), FlagError);
  EXPECT_THROW((void)f.f64("rate"), FlagError);
}

TEST(Flags, UnsignedAccessorsRejectNegatives) {
  Flags f = standard_flags();
  const char* argv[] = {"prog", "--n=-5"};
  ASSERT_TRUE(f.parse(2, argv));
  EXPECT_THROW((void)f.u64("n"), FlagError);
  EXPECT_THROW((void)f.u32("n"), FlagError);
  EXPECT_EQ(f.i64("n"), -5);  // signed accessor still accepts it
}

TEST(Flags, UnsignedAccessorsRejectOverflow) {
  Flags f = standard_flags();
  const char* argv[] = {"prog", "--n=99999999999999999999999"};
  ASSERT_TRUE(f.parse(2, argv));
  EXPECT_THROW((void)f.u64("n"), FlagError);
  EXPECT_THROW((void)f.u32("n"), FlagError);
}

TEST(Flags, U32RejectsValuesPastItsWidth) {
  Flags f = standard_flags();
  const char* argv[] = {"prog", "--n=4294967296"};  // 2^32
  ASSERT_TRUE(f.parse(2, argv));
  EXPECT_THROW((void)f.u32("n"), FlagError);
  EXPECT_EQ(f.u64("n"), 4294967296u);
}

TEST(Flags, RangedAccessorsNameTheFlagInErrors) {
  Flags f = standard_flags();
  const char* argv[] = {"prog", "--n=0"};
  ASSERT_TRUE(f.parse(2, argv));
  try {
    (void)f.u32("n", 1);
    FAIL() << "expected range violation to throw";
  } catch (const FlagError& err) {
    EXPECT_NE(std::string(err.what()).find("--n"), std::string::npos);
  }
  EXPECT_EQ(f.u32("n", 0), 0u);
}

}  // namespace
}  // namespace diners::util
