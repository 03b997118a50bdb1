#include "util/flags.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace dtn::util {
namespace {

Flags parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "prog");
  argv.reserve(storage.size());
  for (auto& s : storage) argv.push_back(s.data());
  return Flags::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsForm) {
  const Flags f = parse({"--nodes=120", "--alpha=0.28"});
  EXPECT_EQ(f.get_int("nodes", 0), 120);
  EXPECT_DOUBLE_EQ(f.get_double("alpha", 0.0), 0.28);
}

TEST(Flags, SpaceForm) {
  const Flags f = parse({"--protocol", "EER", "--seeds", "5"});
  EXPECT_EQ(f.get_string("protocol", ""), "EER");
  EXPECT_EQ(f.get_int("seeds", 0), 5);
}

TEST(Flags, BareBoolean) {
  const Flags f = parse({"--verbose", "--quick"});
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_TRUE(f.get_bool("quick", false));
  EXPECT_FALSE(f.get_bool("absent", false));
}

TEST(Flags, BooleanValues) {
  const Flags f = parse({"--a=true", "--b=false", "--c=1", "--d=no"});
  EXPECT_TRUE(f.get_bool("a", false));
  EXPECT_FALSE(f.get_bool("b", true));
  EXPECT_TRUE(f.get_bool("c", false));
  EXPECT_FALSE(f.get_bool("d", true));
}

TEST(Flags, FallbacksWhenMissingOrMalformed) {
  const Flags f = parse({"--n=abc"});
  EXPECT_EQ(f.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(f.get_double("n", 1.5), 1.5);
  EXPECT_EQ(f.get_int("missing", -1), -1);
}

TEST(Flags, PositionalPreserved) {
  const Flags f = parse({"input.txt", "--x=1", "more"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.txt");
  EXPECT_EQ(f.positional()[1], "more");
}

TEST(Flags, HasAndSet) {
  Flags f = parse({"--x=1"});
  EXPECT_TRUE(f.has("x"));
  EXPECT_FALSE(f.has("y"));
  f.set("y", "2");
  EXPECT_TRUE(f.has("y"));
  EXPECT_EQ(f.get_int("y", 0), 2);
}

TEST(Flags, RepeatedFlagKeepsAllValuesInOrder) {
  const Flags f = parse({"--set", "a=1", "--set=b=2", "--other", "x", "--set", "c=3"});
  const auto values = f.get_list("set");
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0], "a=1");
  EXPECT_EQ(values[1], "b=2");
  EXPECT_EQ(values[2], "c=3");
  // Scalar getters see the last occurrence; absent flags give empty lists.
  EXPECT_EQ(f.get_string("set", ""), "c=3");
  EXPECT_TRUE(f.get_list("absent").empty());
}

TEST(Flags, UnknownFlagsScan) {
  const Flags f = parse({"--set", "a=1", "--sed", "b=2", "--quiet"});
  const auto offenders = f.unknown_flags({"set", "quiet"});
  ASSERT_EQ(offenders.size(), 1u);
  EXPECT_EQ(offenders[0], "sed");
  EXPECT_TRUE(f.unknown_flags({"set", "sed", "quiet"}).empty());
}

TEST(SplitCsv, TokensAndEdgeCases) {
  const auto tokens = split_csv("EER,CR,,EBR");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "EER");
  EXPECT_EQ(tokens[1], "CR");
  EXPECT_EQ(tokens[2], "EBR");
  EXPECT_TRUE(split_csv("").empty());
  EXPECT_TRUE(split_csv(",,").empty());
  EXPECT_EQ(split_csv("solo").size(), 1u);
}

}  // namespace
}  // namespace dtn::util
