#include "core/mi_matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace dtn::core {
namespace {

TEST(MiMatrix, InitialState) {
  const MiMatrix mi(4);
  EXPECT_EQ(mi.size(), 4);
  for (NodeIdx i = 0; i < 4; ++i) {
    for (NodeIdx j = 0; j < 4; ++j) {
      if (i == j) {
        EXPECT_DOUBLE_EQ(mi.get(i, j), 0.0);
      } else {
        EXPECT_TRUE(std::isinf(mi.get(i, j)));
      }
    }
  }
}

TEST(MiMatrix, SetEntryStampsRow) {
  MiMatrix mi(3);
  mi.set_entry(0, 1, 42.0, 100.0);
  EXPECT_DOUBLE_EQ(mi.get(0, 1), 42.0);
  EXPECT_DOUBLE_EQ(mi.row_time(0), 100.0);
  EXPECT_TRUE(std::isinf(mi.get(1, 0)));  // asymmetric until u_1 updates
}

/// Every diagonal entry is +0.0, the bits Dijkstra reads in storage().
bool diagonal_is_positive_zero(const MiMatrix& mi) {
  for (NodeIdx i = 0; i < mi.size(); ++i) {
    if (mi.get(i, i) != 0.0 || std::signbit(mi.get(i, i))) return false;
  }
  return true;
}

TEST(MiMatrix, DiagonalImmutable) {
  MiMatrix mi(3);
  mi.set_entry(1, 1, 99.0, 5.0);
  mi.set_entry(2, 2, -0.0, 6.0);
  EXPECT_DOUBLE_EQ(mi.get(1, 1), 0.0);
  EXPECT_TRUE(diagonal_is_positive_zero(mi));
  MiMatrix other(3);
  other.set_entry(0, 1, 7.0, 9.0);
  other.set_entry(2, 0, 8.0, 9.0);
  ASSERT_EQ(mi.merge_from(other), 2);
  EXPECT_TRUE(diagonal_is_positive_zero(mi));
  mi.reset();
  EXPECT_TRUE(diagonal_is_positive_zero(mi));
}

TEST(MiMatrix, WithRowSwapsInForTheCallAndBackAfterIt) {
  MiMatrix mi(3);
  mi.set_entry(0, 1, 11.0, 4.0);
  mi.set_entry(1, 2, 12.0, 5.0);
  const std::vector<double> before(mi.storage().begin(), mi.storage().end());
  const auto version = mi.version();
  const auto same_bytes = [&] {
    return std::memcmp(before.data(), mi.storage().data(),
                       before.size() * sizeof(double)) == 0;
  };
  std::vector<double> row = {0.0, 3.0, 4.0};
  const double seen = mi.with_row(0, row, [&](std::span<const double> m) {
    EXPECT_EQ(m.data(), mi.storage().data());
    return m[1] + m[2] + m[1 * 3 + 2];
  });
  EXPECT_DOUBLE_EQ(seen, 3.0 + 4.0 + 12.0);
  EXPECT_EQ(row, (std::vector<double>{0.0, 3.0, 4.0}));
  EXPECT_TRUE(same_bytes());
  EXPECT_EQ(mi.version(), version);
  EXPECT_DOUBLE_EQ(mi.row_time(0), 4.0);

  EXPECT_THROW(mi.with_row(0, row,
                           [](std::span<const double>) -> int {
                             throw std::runtime_error("unwind");
                           }),
               std::runtime_error);
  EXPECT_TRUE(same_bytes()) << "a throwing call must still restore the row";
  EXPECT_EQ(row, (std::vector<double>{0.0, 3.0, 4.0}));
  EXPECT_EQ(mi.version(), version);
}

TEST(MiMatrix, RowTimeKeepsMax) {
  MiMatrix mi(3);
  mi.set_entry(0, 1, 10.0, 100.0);
  mi.set_entry(0, 2, 20.0, 50.0);  // older stamp must not regress row time
  EXPECT_DOUBLE_EQ(mi.row_time(0), 100.0);
}

TEST(MiMatrix, MergeTakesFresherRows) {
  MiMatrix a(3);
  MiMatrix b(3);
  a.set_entry(0, 1, 11.0, 10.0);
  b.set_entry(0, 1, 22.0, 20.0);  // b's row 0 is fresher
  b.set_entry(1, 2, 33.0, 5.0);
  const int copied = a.merge_from(b);
  EXPECT_EQ(copied, 2);  // rows 0 and 1
  EXPECT_DOUBLE_EQ(a.get(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(a.get(1, 2), 33.0);
}

TEST(MiMatrix, MergeSkipsStalerRows) {
  MiMatrix a(3);
  MiMatrix b(3);
  a.set_entry(0, 1, 11.0, 100.0);
  b.set_entry(0, 1, 22.0, 50.0);
  EXPECT_EQ(a.merge_from(b), 0);
  EXPECT_DOUBLE_EQ(a.get(0, 1), 11.0);
}

TEST(MiMatrix, BidirectionalMergeConverges) {
  MiMatrix a(4);
  MiMatrix b(4);
  a.set_entry(0, 1, 10.0, 1.0);
  a.set_entry(2, 3, 30.0, 3.0);
  b.set_entry(1, 2, 20.0, 2.0);
  a.merge_from(b);
  b.merge_from(a);
  for (NodeIdx i = 0; i < 4; ++i) {
    for (NodeIdx j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(a.get(i, j), b.get(i, j)) << i << "," << j;
    }
    EXPECT_DOUBLE_EQ(a.row_time(i), b.row_time(i));
  }
}

TEST(MiMatrix, MergeIsIdempotent) {
  MiMatrix a(3);
  MiMatrix b(3);
  b.set_entry(1, 0, 44.0, 9.0);
  a.merge_from(b);
  EXPECT_EQ(a.merge_from(b), 0);  // second merge copies nothing
}

TEST(MiMatrix, VersionBumpsOnMutation) {
  MiMatrix a(3);
  const auto v0 = a.version();
  a.set_entry(0, 1, 5.0, 1.0);
  EXPECT_GT(a.version(), v0);
  MiMatrix b(3);
  b.set_entry(1, 2, 6.0, 2.0);
  const auto v1 = a.version();
  a.merge_from(b);
  EXPECT_GT(a.version(), v1);
  const auto v2 = a.version();
  a.merge_from(b);  // no-op merge must not bump
  EXPECT_EQ(a.version(), v2);
}

TEST(MiMatrix, RowBytes) {
  const MiMatrix mi(10);
  EXPECT_EQ(mi.row_bytes(), 10 * 8 + 8);
}

TEST(MiMatrix, ThreeWayGossipPropagatesRows) {
  // a knows row 0, c knows row 2; b relays between them.
  MiMatrix a(3);
  MiMatrix b(3);
  MiMatrix c(3);
  a.set_entry(0, 1, 10.0, 1.0);
  c.set_entry(2, 1, 20.0, 1.0);
  b.merge_from(a);
  c.merge_from(b);
  EXPECT_DOUBLE_EQ(c.get(0, 1), 10.0);  // a's row reached c through b
}

}  // namespace
}  // namespace dtn::core
