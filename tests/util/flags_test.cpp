#include "src/util/flags.h"

#include <gtest/gtest.h>

namespace tc::util {
namespace {

Flags make(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "prog");
  static std::vector<char*> argv;
  argv.clear();
  for (auto& s : storage) argv.push_back(s.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, SpaceSeparatedValue) {
  const auto f = make({"--swarms", "500"});
  EXPECT_EQ(f.get_int("swarms", 0), 500);
}

TEST(Flags, EqualsValue) {
  const auto f = make({"--file-mb=16"});
  EXPECT_EQ(f.get_int("file-mb", 0), 16);
}

TEST(Flags, BooleanFlag) {
  const auto f = make({"--full", "--seeds", "3"});
  EXPECT_TRUE(f.get_bool("full"));
  EXPECT_EQ(f.get_int("seeds", 0), 3);
}

TEST(Flags, BooleanFalseSpellings) {
  EXPECT_FALSE(make({"--x=false"}).get_bool("x", true));
  EXPECT_FALSE(make({"--x=0"}).get_bool("x", true));
  EXPECT_FALSE(make({"--x=no"}).get_bool("x", true));
  EXPECT_TRUE(make({"--x=yes"}).get_bool("x", false));
}

TEST(Flags, Defaults) {
  const auto f = make({});
  EXPECT_EQ(f.get_int("missing", 42), 42);
  EXPECT_DOUBLE_EQ(f.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(f.get_string("missing", "d"), "d");
  EXPECT_FALSE(f.get_bool("missing"));
  EXPECT_FALSE(f.has("missing"));
}

TEST(Flags, Positional) {
  const auto f = make({"run", "--n", "5", "fast"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "run");
  EXPECT_EQ(f.positional()[1], "fast");
}

TEST(Flags, DoubleValue) {
  const auto f = make({"--frac", "0.25"});
  EXPECT_DOUBLE_EQ(f.get_double("frac", 0), 0.25);
}

TEST(Flags, LastOccurrenceWins) {
  const auto f = make({"--n", "1", "--n", "2"});
  EXPECT_EQ(f.get_int("n", 0), 2);
}

TEST(Flags, UnknownNamesEveryFlagOutsideTheKnownList) {
  const auto f =
      make({"-n", "4", "--retries", "3", "--watchdg=30", "--quiet", "x"});
  EXPECT_EQ(f.unknown({"n", "quiet", "watchdog"}),
            (std::vector<std::string>{"retries", "watchdg"}));
  EXPECT_TRUE(f.unknown({"n", "quiet", "retries", "watchdg"}).empty());
  EXPECT_TRUE(make({"positional"}).unknown({}).empty());
}

}  // namespace
}  // namespace tc::util
