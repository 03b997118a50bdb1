// Invariants of the incremental contact-layer engine: the per-node
// adjacency index must always agree with ground-truth geometry under random
// link churn, and the reusable-scratch SpatialGrid APIs must match their
// allocating reference forms. Whole simulations are pinned by the metrics
// golden (harness_metrics_golden_test).
#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "../test_support.hpp"
#include "geo/spatial_grid.hpp"
#include "mobility/random_waypoint.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"

namespace dtn::sim {
namespace {

using test::RecordingRouter;

mobility::MovementModelPtr roaming(double area) {
  mobility::RandomWaypointParams params;
  params.world_min = {0.0, 0.0};
  params.world_max = {area, area};
  params.speed_min = 2.0;
  params.speed_max = 12.0;
  return std::make_unique<mobility::RandomWaypoint>(params);
}

TEST(ContactLayerTest, AdjacencyMatchesGeometryUnderChurn) {
  WorldConfig config;
  config.seed = 99;
  World world(config);
  constexpr int kNodes = 24;
  std::vector<RecordingRouter*> routers;
  for (int i = 0; i < kNodes; ++i) {
    auto router = std::make_unique<RecordingRouter>();
    routers.push_back(router.get());
    // 45 m square with 10 m radio range: dense enough that links form and
    // break every few steps.
    world.add_node(roaming(45.0), std::move(router));
  }

  for (int s = 0; s < 600; ++s) {
    world.step();
    const double r2 = config.radio_range * config.radio_range;
    std::size_t pair_count = 0;
    for (NodeIdx a = 0; a < kNodes; ++a) {
      std::vector<NodeIdx> expected;
      for (NodeIdx b = 0; b < kNodes; ++b) {
        if (a == b) continue;
        const bool near =
            world.position_of(a).distance2_to(world.position_of(b)) <= r2;
        ASSERT_EQ(world.in_contact(a, b), near)
            << "step " << s << " pair (" << a << "," << b << ")";
        ASSERT_EQ(world.in_contact(a, b), world.in_contact(b, a));
        if (near) expected.push_back(b);
      }
      pair_count += expected.size();
      // neighbors_of must be exactly the geometric neighbor set, ascending.
      ASSERT_EQ(world.neighbors_of(a), expected) << "step " << s << " node " << a;
    }
    ASSERT_EQ(world.active_connection_count(), pair_count / 2);
  }
  EXPECT_GT(world.contact_events(), 0);
  // Churn actually happened: someone saw a link drop.
  bool any_down = false;
  for (const auto* r : routers) any_down |= !r->contacts_down.empty();
  EXPECT_TRUE(any_down);
}

TEST(ContactLayerTest, ContactCallbacksMirrorAdjacencyTransitions) {
  // Two scripted nodes crossing in and out of range: the adjacency index
  // must flip exactly when the up/down callbacks fire.
  WorldConfig config;
  World world(config);
  auto r0 = std::make_unique<RecordingRouter>();
  RecordingRouter* rec = r0.get();
  world.add_node(test::pinned({0.0, 0.0}), std::move(r0));
  world.add_node(test::scripted({{0.0, {30.0, 0.0}},
                                 {10.0, {0.0, 0.0}},
                                 {20.0, {30.0, 0.0}}}),
                 std::make_unique<RecordingRouter>());
  world.run(20.0);
  ASSERT_EQ(rec->contacts_up.size(), 1u);
  ASSERT_EQ(rec->contacts_down.size(), 1u);
  EXPECT_FALSE(world.in_contact(0, 1));
  EXPECT_TRUE(world.neighbors_of(0).empty());
}

TEST(ContactLayerTest, AllPairsIntoMatchesAllPairsOnRandomClouds) {
  util::Pcg32 rng(2026, 7);
  geo::SpatialGrid grid(10.0);
  std::vector<std::pair<std::int32_t, std::int32_t>> scratch;
  for (int round = 0; round < 20; ++round) {
    grid.clear();
    const int n = 20 + static_cast<int>(rng.next_u32() % 180);
    for (int i = 0; i < n; ++i) {
      grid.insert(i, {rng.next_double() * 120.0, rng.next_double() * 120.0});
    }
    auto baseline = grid.all_pairs(10.0);
    grid.all_pairs_into(10.0, scratch);
    std::sort(baseline.begin(), baseline.end());
    std::sort(scratch.begin(), scratch.end());
    ASSERT_EQ(scratch, baseline) << "round " << round;
  }
}

TEST(ContactLayerTest, QueryIntoMatchesQuery) {
  util::Pcg32 rng(7, 11);
  geo::SpatialGrid grid(5.0);
  for (int i = 0; i < 200; ++i) {
    grid.insert(i, {rng.next_double() * 80.0, rng.next_double() * 80.0});
  }
  std::vector<std::int32_t> scratch;
  for (int q = 0; q < 50; ++q) {
    const geo::Vec2 pos{rng.next_double() * 80.0, rng.next_double() * 80.0};
    auto baseline = grid.query(pos, 12.5, q);
    grid.query_into(pos, 12.5, scratch, q);
    std::sort(baseline.begin(), baseline.end());
    std::sort(scratch.begin(), scratch.end());
    ASSERT_EQ(scratch, baseline) << "query " << q;
  }
}

TEST(ContactLayerTest, StaleCellsArePruned) {
  geo::SpatialGrid grid(10.0);
  // Occupy a 10x10 block of distinct cells once.
  for (int i = 0; i < 100; ++i) {
    grid.insert(i, {static_cast<double>(i % 10) * 10.0 + 5.0,
                    static_cast<double>(i / 10) * 10.0 + 5.0});
  }
  ASSERT_GE(grid.cell_count(), 100u);
  // Then rebuild from a single far-away cell for a long time: the stale
  // cells must eventually be dropped instead of accumulating forever.
  const int rebuilds = static_cast<int>(geo::SpatialGrid::kPruneAfter) * 2 + 10;
  for (int s = 0; s < rebuilds; ++s) {
    grid.clear();
    grid.insert(0, {5000.0, 5000.0});
  }
  EXPECT_LE(grid.cell_count(), 4u);
}

}  // namespace
}  // namespace dtn::sim
