#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace dtn::util {
namespace {

TEST(Pcg32, DeterministicForSameSeed) {
  Pcg32 a(42, 7);
  Pcg32 b(42, 7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next_u32(), b.next_u32());
  }
}

TEST(Pcg32, DifferentStreamsDiffer) {
  Pcg32 a(42, 1);
  Pcg32 b(42, 2);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Pcg32, NextDoubleInUnitInterval) {
  Pcg32 rng(1, 1);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Pcg32, UniformRespectsBounds) {
  Pcg32 rng(3, 3);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform(2.5, 7.5);
    EXPECT_GE(v, 2.5);
    EXPECT_LT(v, 7.5);
  }
}

TEST(Pcg32, UniformIntCoversRangeInclusive) {
  Pcg32 rng(5, 5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all 7 values hit in 10k draws
}

TEST(Pcg32, UniformIntDegenerateRange) {
  Pcg32 rng(5, 5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.uniform_int(9, 9), 9);
  }
}

TEST(Pcg32, UniformIntApproximatelyUniform) {
  Pcg32 rng(11, 13);
  std::vector<int> counts(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    ++counts[static_cast<std::size_t>(rng.uniform_int(0, 9))];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, draws / 10, draws / 100);  // within 10% relative
  }
}

TEST(Pcg32, BernoulliEdgeCases) {
  Pcg32 rng(1, 2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
  }
}

TEST(Pcg32, BernoulliFrequency) {
  Pcg32 rng(7, 11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(DeriveStream, IndependentPerEntity) {
  Pcg32 a = derive_stream(100, 0, StreamPurpose::kMovement);
  Pcg32 b = derive_stream(100, 1, StreamPurpose::kMovement);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(DeriveStream, IndependentPerPurpose) {
  Pcg32 a = derive_stream(100, 0, StreamPurpose::kMovement);
  Pcg32 b = derive_stream(100, 0, StreamPurpose::kTraffic);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(DeriveStream, ReproducibleAcrossCalls) {
  Pcg32 a = derive_stream(100, 5, StreamPurpose::kTest);
  Pcg32 b = derive_stream(100, 5, StreamPurpose::kTest);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

class UniformIntRangeTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(UniformIntRangeTest, AlwaysInRange) {
  const auto [lo, hi] = GetParam();
  Pcg32 rng(123, 456);
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(lo, hi);
    EXPECT_GE(v, lo);
    EXPECT_LE(v, hi);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranges, UniformIntRangeTest,
                         ::testing::Values(std::pair{0, 1}, std::pair{-10, 10},
                                           std::pair{0, 239}, std::pair{1000, 1001},
                                           std::pair{-5, -5}));

}  // namespace
}  // namespace dtn::util
