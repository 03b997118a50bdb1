// geo::SpatialGrid against an O(n^2) loop with the same predicate,
// distance2_to <= radius^2: on every cloud, the sorted pairs that
// all_pairs_into returns must equal the brute-force list, so no pair is
// missed, invented or returned twice.
#include "geo/spatial_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace dtn::geo {
namespace {

using Pairs = std::vector<std::pair<std::int32_t, std::int32_t>>;

// World's sweep radius at a 10 m radio: range + a 2x-range skin.
constexpr double kReach = 30.0;

Pairs brute_force(const std::vector<Vec2>& pts, double radius) {
  Pairs want;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      if (pts[i].distance2_to(pts[j]) <= radius * radius) {
        want.emplace_back(static_cast<std::int32_t>(i), static_cast<std::int32_t>(j));
      }
    }
  }
  return want;
}

/// Clears `grid`, sets `pts` as ids 0..n-1 and returns its sorted pairs.
Pairs grid_pairs(SpatialGrid& grid, const std::vector<Vec2>& pts, double radius) {
  grid.clear();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    grid.update(static_cast<std::int32_t>(i), pts[i]);
  }
  Pairs got;
  grid.all_pairs_into(radius, got);
  std::sort(got.begin(), got.end());
  return got;
}

std::vector<Vec2> uniform_cloud(std::uint64_t seed, int n, Vec2 lo, Vec2 hi) {
  util::Pcg32 rng(seed, 3);
  std::vector<Vec2> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(lo.x, hi.x), rng.uniform(lo.y, hi.y)});
  }
  return pts;
}

TEST(SpatialGrid, NoPointsAndOnePointHaveNoPairs) {
  SpatialGrid grid;
  EXPECT_TRUE(grid_pairs(grid, {}, kReach).empty());
  EXPECT_TRUE(grid_pairs(grid, {{3.0, -4.0}}, kReach).empty());
}

TEST(SpatialGrid, MatchesBruteForceAcrossNegativeCoordinates) {
  SpatialGrid grid;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto pts = uniform_cloud(seed, 400, {-300.0, -250.0}, {60.0, 90.0});
    ASSERT_EQ(grid_pairs(grid, pts, kReach), brute_force(pts, kReach)) << "seed " << seed;
  }
  const auto far = uniform_cloud(9, 300, {-9.0e5, -9.0e5}, {-8.9996e5, -8.9996e5});
  EXPECT_EQ(grid_pairs(grid, far, kReach), brute_force(far, kReach));
}

TEST(SpatialGrid, MatchesBruteForceOnCellEdgesAndAtExactlyTheRadius) {
  // A 6 m lattice over [-60, 60]^2: every cell edge (a multiple of 30) holds
  // points, and pairs 30 m apart on an axis or as an 18-24-30 triangle are
  // exactly the radius apart.
  std::vector<Vec2> pts;
  for (int i = -10; i <= 10; ++i) {
    for (int j = -10; j <= 10; ++j) pts.push_back({6.0 * i, 6.0 * j});
  }
  const Pairs want = brute_force(pts, kReach);
  ASSERT_NE(std::find(want.begin(), want.end(), Pairs::value_type{0, 5 * 21}), want.end())
      << "the lattice holds a pair exactly the radius apart";
  SpatialGrid grid;
  EXPECT_EQ(grid_pairs(grid, pts, kReach), want);
  // Other radii put the same lattice off the cell edges.
  for (const double radius : {6.0, 7.5, 10.0, 12.0}) {
    EXPECT_EQ(grid_pairs(grid, pts, radius), brute_force(pts, radius)) << radius;
  }
}

TEST(SpatialGrid, CoincidentPointsPairWithEachOther) {
  std::vector<Vec2> pts(12, Vec2{30.0, -30.0});
  pts.resize(20, Vec2{44.5, 7.25});
  pts.push_back({1000.0, 1000.0});
  SpatialGrid grid;
  const Pairs got = grid_pairs(grid, pts, kReach);
  EXPECT_EQ(got, brute_force(pts, kReach));
  EXPECT_EQ(got.size(), 12u * 11u / 2u + 8u * 7u / 2u);
}

TEST(SpatialGrid, NonFinitePointsPairWithNothing) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<Vec2> pts{{kInf, 0.0},  {kInf, 0.0},   {0.0, -kInf},
                              {1.0, 2.0},   {-kInf, kInf}, {std::nan(""), 5.0},
                              {4.0, -3.0}};
  SpatialGrid grid;
  EXPECT_EQ(grid_pairs(grid, pts, kReach), (Pairs{{3, 6}}));
  EXPECT_EQ(brute_force(pts, kReach), (Pairs{{3, 6}}));
}

TEST(SpatialGrid, MatchesBruteForceOnDenseClouds) {
  // Several points per cell, at radii below the density's spacing and above.
  SpatialGrid grid;
  for (const int n : {2, 10, 50, 120, 600}) {
    const auto pts =
        uniform_cloud(static_cast<std::uint64_t>(n), n, {0.0, 0.0}, {90.0, 90.0});
    for (const double radius : {3.0, 10.0, kReach}) {
      ASSERT_EQ(grid_pairs(grid, pts, radius), brute_force(pts, radius))
          << "n " << n << ", radius " << radius;
    }
  }
}

TEST(SpatialGrid, MatchesBruteForceOnABusDensityCloud) {
  // 240 buses on 12 straight routes across a 4 km x 3 km map: sparse
  // overall, with runs of neighbours along each route.
  util::Pcg32 rng(2011, 5);
  std::vector<Vec2> pts;
  for (int route = 0; route < 12; ++route) {
    const Vec2 a{rng.uniform(0.0, 4000.0), rng.uniform(0.0, 3000.0)};
    const Vec2 b{rng.uniform(0.0, 4000.0), rng.uniform(0.0, 3000.0)};
    for (int bus = 0; bus < 20; ++bus) {
      const double s = rng.next_double();
      pts.push_back({a.x + s * (b.x - a.x), a.y + s * (b.y - a.y)});
    }
  }
  SpatialGrid grid;
  const Pairs want = brute_force(pts, kReach);
  EXPECT_GT(want.size(), 20u);
  EXPECT_EQ(grid_pairs(grid, pts, kReach), want);
}

TEST(SpatialGrid, MatchesBruteForceOnA14KmSparseSpread) {
  const auto pts = uniform_cloud(42, 4000, {0.0, 0.0}, {14000.0, 14000.0});
  SpatialGrid grid;
  const Pairs want = brute_force(pts, kReach);
  EXPECT_GT(want.size(), 100u);
  EXPECT_EQ(grid_pairs(grid, pts, kReach), want);
}

TEST(SpatialGrid, ClearDropsIdsThatAreNotSetAgain) {
  // A warm grid reused for fewer ids must not pair the ids left over.
  SpatialGrid grid;
  const auto many = uniform_cloud(5, 300, {0.0, 0.0}, {200.0, 200.0});
  ASSERT_EQ(grid_pairs(grid, many, kReach), brute_force(many, kReach));
  const std::vector<Vec2> few(many.begin(), many.begin() + 40);
  EXPECT_EQ(grid_pairs(grid, few, kReach), brute_force(few, kReach));
  EXPECT_TRUE(grid_pairs(grid, {}, kReach).empty());
}

TEST(SpatialGrid, RepeatedUpdateKeepsTheLastPosition) {
  SpatialGrid grid;
  grid.update(0, {0.0, 0.0});
  grid.update(3, {500.0, 500.0});
  grid.update(3, {-500.0, 20.0});
  grid.update(3, {10.0, 10.0});  // the one that counts: 14.1 m from id 0
  grid.update(7, {600.0, 0.0});  // ids 1, 2 and 4-6 were never set
  grid.update(7, {0.0, 40.0});   // 40 m from id 0, 31.6 m from id 3
  Pairs got;
  grid.all_pairs_into(kReach, got);
  EXPECT_EQ(got, (Pairs{{0, 3}}));
}

TEST(SpatialGrid, MatchesBruteForceOnReusedScratch) {
  // One grid across clouds of varying size and spread, as World reuses it
  // across rebuilds and scenarios.
  SpatialGrid grid;
  util::Pcg32 rng(2026, 7);
  for (int round = 0; round < 30; ++round) {
    const int n = static_cast<int>(rng.uniform_int(0, 400));
    const double side = rng.uniform(20.0, 3000.0);
    const auto pts = uniform_cloud(static_cast<std::uint64_t>(round) + 100, n,
                                   {-side / 3.0, -side / 2.0}, {side, side / 2.0});
    ASSERT_EQ(grid_pairs(grid, pts, kReach), brute_force(pts, kReach))
        << "round " << round;
  }
}

}  // namespace
}  // namespace dtn::geo
