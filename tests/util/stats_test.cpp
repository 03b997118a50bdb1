#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace dtn::util {
namespace {

TEST(StatAccumulator, EmptyIsZero) {
  StatAccumulator acc;
  EXPECT_TRUE(acc.empty());
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.min(), 0.0);
  EXPECT_DOUBLE_EQ(acc.max(), 0.0);
}

TEST(StatAccumulator, SingleValue) {
  StatAccumulator acc;
  acc.add(5.0);
  EXPECT_EQ(acc.count(), 1u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.min(), 5.0);
  EXPECT_DOUBLE_EQ(acc.max(), 5.0);
}

TEST(StatAccumulator, KnownMoments) {
  StatAccumulator acc;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(v);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  // Sample variance with n-1 = 7: sum of squared deviations = 32.
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(StatAccumulator, ResetClears) {
  StatAccumulator acc;
  acc.add(42.0);
  acc.reset();
  EXPECT_TRUE(acc.empty());
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
}

TEST(StatAccumulator, NumericallyStableLargeOffset) {
  // Welford should keep precision with a large constant offset.
  StatAccumulator acc;
  const double offset = 1e9;
  for (const double v : {1.0, 2.0, 3.0}) acc.add(offset + v);
  EXPECT_NEAR(acc.mean(), offset + 2.0, 1e-3);
  EXPECT_NEAR(acc.variance(), 1.0, 1e-6);
}

}  // namespace
}  // namespace dtn::util
