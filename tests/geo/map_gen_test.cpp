#include "geo/map_gen.hpp"

#include <gtest/gtest.h>

namespace dtn::geo {
namespace {

DowntownParams small_params() {
  DowntownParams p;
  p.rows = 6;
  p.cols = 8;
  p.block_m = 100.0;
  p.districts = 3;
  p.routes_per_district = 2;
  p.seed = 42;
  return p;
}

TEST(MapGen, GridHasExpectedIntersections) {
  const DowntownParams p = small_params();
  const MapGraph map = generate_grid_map(p);
  EXPECT_EQ(map.node_count(), static_cast<std::size_t>((p.rows + 1) * (p.cols + 1)));
}

TEST(MapGen, GridIsConnected) {
  const MapGraph map = generate_grid_map(small_params());
  EXPECT_TRUE(map.connected());
}

TEST(MapGen, GridBoundsMatchBlocks) {
  const DowntownParams p = small_params();
  const MapGraph map = generate_grid_map(p);
  const auto [lo, hi] = map.bounds();
  EXPECT_DOUBLE_EQ(lo.x, 0.0);
  EXPECT_DOUBLE_EQ(lo.y, 0.0);
  EXPECT_DOUBLE_EQ(hi.x, p.cols * p.block_m);
  EXPECT_DOUBLE_EQ(hi.y, p.rows * p.block_m);
}

TEST(MapGen, DeterministicForSeed) {
  const DowntownParams p = small_params();
  const BusNetwork a = generate_downtown(p);
  const BusNetwork b = generate_downtown(p);
  ASSERT_EQ(a.routes.size(), b.routes.size());
  for (std::size_t i = 0; i < a.routes.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.routes[i].line.total_length(), b.routes[i].line.total_length());
    EXPECT_EQ(a.routes[i].district, b.routes[i].district);
  }
}

TEST(MapGen, DifferentSeedsDiffer) {
  DowntownParams p = small_params();
  const BusNetwork a = generate_downtown(p);
  p.seed = 43;
  const BusNetwork b = generate_downtown(p);
  bool any_difference = a.routes.size() != b.routes.size();
  for (std::size_t i = 0; !any_difference && i < a.routes.size(); ++i) {
    any_difference = a.routes[i].line.total_length() != b.routes[i].line.total_length();
  }
  EXPECT_TRUE(any_difference);
}

TEST(MapGen, RoutesAreClosedWithPositiveLength) {
  const BusNetwork net = generate_downtown(small_params());
  EXPECT_FALSE(net.routes.empty());
  for (const auto& r : net.routes) {
    EXPECT_TRUE(r.line.closed());
    EXPECT_GT(r.line.total_length(), 0.0);
  }
}

TEST(MapGen, EveryDistrictHasRoutes) {
  const DowntownParams p = small_params();
  const BusNetwork net = generate_downtown(p);
  std::vector<int> per_district(static_cast<std::size_t>(p.districts), 0);
  for (const auto& r : net.routes) {
    ASSERT_GE(r.district, 0);
    ASSERT_LT(r.district, p.districts);
    ++per_district[static_cast<std::size_t>(r.district)];
  }
  for (const int count : per_district) EXPECT_GT(count, 0);
}

TEST(MapGen, RouteVerticesLieOnMapIntersections) {
  const BusNetwork net = generate_downtown(small_params());
  for (const auto& r : net.routes) {
    for (const Vec2 p : r.line.points()) {
      const NodeId nearest = net.map.nearest_node(p);
      EXPECT_LT(p.distance_to(net.map.position(nearest)), 1e-9);
    }
  }
}

TEST(MapGen, SingleDistrictWorks) {
  DowntownParams p = small_params();
  p.districts = 1;
  const BusNetwork net = generate_downtown(p);
  EXPECT_EQ(net.districts, 1);
  for (const auto& r : net.routes) EXPECT_EQ(r.district, 0);
}

class MapGenSizeTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(MapGenSizeTest, GeneratesValidNetworks) {
  const auto [districts, routes] = GetParam();
  DowntownParams p = small_params();
  p.districts = districts;
  p.routes_per_district = routes;
  const BusNetwork net = generate_downtown(p);
  EXPECT_TRUE(net.map.connected());
  EXPECT_GE(static_cast<int>(net.routes.size()), districts);  // >= 1 per district
  for (const auto& r : net.routes) {
    EXPECT_GE(r.line.total_length(), p.block_m);  // routes span at least a block
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MapGenSizeTest,
                         ::testing::Values(std::pair{2, 1}, std::pair{3, 3},
                                           std::pair{4, 2}, std::pair{5, 4}));

}  // namespace
}  // namespace dtn::geo
