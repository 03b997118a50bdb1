// Invariants of the incremental contact-layer engine: the per-node
// adjacency index must always agree with brute-force geometry under link
// churn on every kind of world (walkers, buses, two buses meeting head-on,
// a bus whose cursor is rebased, scripted jumps, pinned nodes, and steps
// after an event-kernel run). The cell list that builds the candidates is
// checked against brute force in geo_spatial_grid_test. Whole simulations
// are pinned by the metrics golden (harness_metrics_golden_test).
#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "../test_support.hpp"
#include "geo/polyline.hpp"
#include "mobility/bus_movement.hpp"
#include "mobility/random_waypoint.hpp"
#include "sim/world.hpp"

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

void add_walkers(World& world, int count) {
  // A 45 m square with a 10 m radio: dense enough that links form and
  // break every few steps.
  for (int i = 0; i < count; ++i) {
    world.add_node(roaming(45.0), std::make_unique<RecordingRouter>());
  }
}

void add_buses(World& world) {
  // Two hand-built closed loops that share a corridor, served at the
  // paper's 2.7-13.9 m/s with short stops, so buses bunch, overtake and
  // cross each other's line.
  const auto loop = std::make_shared<const geo::Polyline>(
      std::vector<geo::Vec2>{{0.0, 0.0}, {60.0, 0.0}, {60.0, 40.0}, {0.0, 40.0}}, true);
  const auto triangle = std::make_shared<const geo::Polyline>(
      std::vector<geo::Vec2>{{30.0, 0.0}, {90.0, 20.0}, {30.0, 40.0}}, true);
  mobility::BusParams params;
  params.stop_spacing = 50.0;
  params.pause_min = 1.0;
  params.pause_max = 4.0;
  for (int i = 0; i < 16; ++i) {
    world.add_node(i % 2 == 0 ? loop : triangle, params,
                   std::make_unique<RecordingRouter>());
  }
}

void add_buses_head_on(World& world) {
  // Two buses on one 150 m street, each running it out and back, one in
  // each direction: they meet head-on, closing at up to 27.8 m/s. Neither
  // is near anything else, so each rebuild is triggered by one of them
  // straying from its anchor, and a stale check that let a bus stray much
  // past its trigger distance unevaluated would see them pass each other.
  const std::vector<geo::Vec2> street{{0.0, 0.0}, {150.0, 0.0}};
  mobility::BusParams params;
  params.speed_min = 8.0;
  for (const auto& ends : {street, std::vector<geo::Vec2>(street.rbegin(), street.rend())}) {
    world.add_node(std::make_shared<const geo::Polyline>(ends, true), params,
                   std::make_unique<RecordingRouter>());
  }
}

void add_rebasing_bus(World& world) {
  // Eight posts 25 m apart round a 200 m square loop, and one bus at
  // ~1e11 m/s on it: ~37 m round the loop per step, so it lands near a
  // different post most steps, and its cursor passes the 1e12 m rebase
  // every ~100 steps. The rebase moves the cursor back by whole loops, so
  // its odometer falls; the contact layer must not take that as "has not
  // moved". Stops 2.5e11 m apart (far above the loop's length) keep the
  // step loop to a few stop events.
  const auto square = std::make_shared<const geo::Polyline>(
      std::vector<geo::Vec2>{{0.0, 0.0}, {50.0, 0.0}, {50.0, 50.0}, {0.0, 50.0}}, true);
  for (int p = 0; p < 8; ++p) {
    world.add_node(test::pinned(square->point_at(25.0 * p)),
                   std::make_unique<RecordingRouter>());
  }
  mobility::BusParams params;
  params.speed_min = params.speed_max = 1e11 + 373.0;
  params.stop_spacing = 2.5e11;
  params.pause_min = 0.3;
  params.pause_max = 0.6;
  world.add_node(square, params, std::make_unique<RecordingRouter>());
}

void add_jumpers(World& world) {
  // Pinned posts 100 m apart, and scripted nodes that drift 1 m at a post
  // for 0.95 s, then hop to another post within one 0.1 s step: 100 m or
  // 200 m, at least five times the 20 m skin at a 10 m radio.
  for (int p = 0; p < 3; ++p) {
    world.add_node(test::pinned({100.0 * p, 0.0}), std::make_unique<RecordingRouter>());
  }
  for (int j = 0; j < 4; ++j) {
    std::vector<std::pair<double, geo::Vec2>> keyframes;
    const double y = 2.0 * j;
    for (int hop = 0; hop < 12; ++hop) {
      const double x = 100.0 * ((hop + j) % 3) + 4.0;
      const double t = hop;
      keyframes.push_back({t, {x, y}});
      keyframes.push_back({t + 0.95, {x + 1.0, y}});
    }
    world.add_node(test::scripted(std::move(keyframes)),
                   std::make_unique<RecordingRouter>());
  }
}

void add_walkers_and_posts(World& world) {
  add_walkers(world, 16);
  for (int p = 0; p < 6; ++p) {
    world.add_node(test::pinned({7.5 + 15.0 * (p % 3), 10.0 + 25.0 * (p / 3)}),
                   std::make_unique<RecordingRouter>());
  }
}

/// One world of the contact-set table.
struct ChurnWorld {
  const char* name;
  void (*add_nodes)(World&);
  int steps;
  /// Simulated seconds run() on the event kernel before stepping (0: none).
  double kernel_run = 0.0;
};

/// Checks the contact layer against brute force over every pair: in_contact
/// equals `distance2_to <= r*r` both ways round, neighbors_of is exactly
/// the geometric neighbour set, ascending, and there is one connection per
/// in-range pair. Leaves the in-range pairs (a < b), ascending, in `pairs`.
::testing::AssertionResult contacts_match_geometry(
    const World& world, std::vector<std::pair<NodeIdx, NodeIdx>>& pairs) {
  const double r2 = world.config().radio_range * world.config().radio_range;
  pairs.clear();
  for (NodeIdx a = 0; a < world.node_count(); ++a) {
    std::vector<NodeIdx> expected;
    for (NodeIdx b = 0; b < world.node_count(); ++b) {
      if (a == b) continue;
      const bool near = world.position_of(a).distance2_to(world.position_of(b)) <= r2;
      if (world.in_contact(a, b) != near || world.in_contact(b, a) != near) {
        return ::testing::AssertionFailure()
               << "pair (" << a << "," << b << ") in range: " << near;
      }
      if (!near) continue;
      expected.push_back(b);
      if (a < b) pairs.emplace_back(a, b);
    }
    if (world.neighbors_of(a) != expected) {
      return ::testing::AssertionFailure() << "neighbors_of(" << a << ")";
    }
  }
  if (world.active_connection_count() != pairs.size()) {
    return ::testing::AssertionFailure()
           << world.active_connection_count() << " connections for " << pairs.size()
           << " pairs in range";
  }
  return ::testing::AssertionSuccess();
}

/// Steps `spec`'s world, checking the contact layer after every step. A
/// fatal failure ends this world only, so every world reports.
void check_world_under_churn(const ChurnWorld& spec) {
  WorldConfig config;
  config.seed = 99;
  config.event_kernel = spec.kernel_run > 0.0;
  World world(config);
  spec.add_nodes(world);
  if (spec.kernel_run > 0.0) {
    world.run(spec.kernel_run);
    ASSERT_TRUE(world.event_kernel_used());
  }
  std::vector<std::pair<NodeIdx, NodeIdx>> prev;
  std::vector<std::pair<NodeIdx, NodeIdx>> curr;
  bool any_down = false;
  for (int s = 0; s < spec.steps; ++s) {
    world.step();
    ASSERT_TRUE(contacts_match_geometry(world, curr)) << "step " << s;
    any_down |= !std::includes(curr.begin(), curr.end(), prev.begin(), prev.end());
    std::swap(prev, curr);
  }
  EXPECT_GT(world.contact_events(), 0);
  // Churn actually happened: some link dropped.
  EXPECT_TRUE(any_down);
}

TEST(ContactLayerTest, AdjacencyMatchesGeometryUnderChurn) {
  const ChurnWorld worlds[] = {
      {"walkers", [](World& w) { add_walkers(w, 24); }, 600},
      {"buses", add_buses, 1200},
      {"buses head-on", add_buses_head_on, 2400},
      {"bus past the cursor rebase", add_rebasing_bus, 450},
      {"scripted jumps", add_jumpers, 120},
      {"walkers and pinned posts", add_walkers_and_posts, 600},
      {"event kernel, then steps", [](World& w) { add_walkers(w, 24); }, 300, 30.0},
  };
  for (const ChurnWorld& spec : worlds) {
    SCOPED_TRACE(spec.name);
    check_world_under_churn(spec);
  }
}

TEST(ContactLayerTest, ResetToLargerRangeLinksTheSameLayout) {
  // 40 m apart: beyond a 10 m radio plus its 20 m skin, so a step at that
  // range lists no candidate pair. After a reset to a 50 m radio the nodes
  // stand where they stood, so nothing but the reset itself can make the
  // first step look for the pair again.
  WorldConfig config;
  World world(config);
  const auto add_layout = [&world] {
    world.add_node(test::pinned({0.0, 0.0}), std::make_unique<RecordingRouter>());
    world.add_node(test::pinned({40.0, 0.0}), std::make_unique<RecordingRouter>());
  };
  add_layout();
  world.step();
  ASSERT_FALSE(world.in_contact(0, 1));
  config.radio_range = 50.0;
  world.reset(config);
  add_layout();
  world.step();
  EXPECT_TRUE(world.in_contact(0, 1));
  EXPECT_EQ(world.contact_events(), 1);
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

}  // namespace
}  // namespace dtn::sim
