// SoA movement kernel vs the legacy per-object models: bit-identical
// trajectories. The MovementEngine promises the exact arithmetic and the
// exact RNG stream consumption of RandomWaypoint / CommunityMovement /
// BusMovement (mobility/movement_engine.hpp header contract) — these tests
// drive both paths from the same derived stream, step for step, and
// compare positions with exact double equality. Any reordering of draws,
// refactoring of the step arithmetic, or segment-cache bug in
// point_at_hinted shows up as a first-divergence step index.
#include "mobility/movement_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "geo/polyline.hpp"
#include "mobility/bus_movement.hpp"
#include "mobility/community_movement.hpp"
#include "mobility/random_waypoint.hpp"
#include "util/rng.hpp"

namespace dtn::mobility {
namespace {

constexpr double kDt = 0.1;

util::Pcg32 stream(std::uint64_t node) {
  return util::derive_stream(12345, node, util::StreamPurpose::kMovement);
}

/// Steps `model` and the engine's node 0 in lockstep and requires exactly
/// equal positions at every step.
void expect_lockstep(MovementEngine& engine, MovementModel& model, int steps) {
  ASSERT_EQ(engine.positions().at(0), model.position()) << "diverged at init";
  double t = 0.0;
  for (int i = 0; i < steps; ++i) {
    engine.step_all(t, kDt);
    model.step(t, kDt);
    t += kDt;
    const geo::Vec2 got = engine.positions()[0];
    const geo::Vec2 want = model.position();
    ASSERT_EQ(got.x, want.x) << "x diverged at step " << i;
    ASSERT_EQ(got.y, want.y) << "y diverged at step " << i;
  }
}

TEST(MovementEngine, RandomWaypointLaneMatchesLegacyModelExactly) {
  RandomWaypointParams p;
  p.world_max = {400.0, 300.0};
  p.speed_min = 2.0;
  p.speed_max = 14.0;
  p.pause_min = 1.0;
  p.pause_max = 20.0;
  MovementEngine engine;
  ASSERT_EQ(engine.add_waypoint(p), 0);
  engine.init_node(0, stream(0), 0.0);
  RandomWaypoint model(p);
  model.init(stream(0), 0.0);
  // Long enough to cross hundreds of waypoint events.
  expect_lockstep(engine, model, 20000);
}

TEST(MovementEngine, CommunityLaneMatchesLegacyModelExactly) {
  CommunityMovementParams p;
  p.world_max = {2000.0, 2000.0};
  p.home_min = {500.0, 0.0};
  p.home_max = {1000.0, 2000.0};
  p.home_prob = 0.85;
  MovementEngine engine;
  ASSERT_EQ(engine.add_community(p), 0);
  engine.init_node(0, stream(3), 0.0);
  CommunityMovement model(p);
  model.init(stream(3), 0.0);
  expect_lockstep(engine, model, 20000);
}

TEST(MovementEngine, CommunityDegenerateHomeProbConsumesNoBernoulliDraw) {
  // bernoulli(p) skips the stream draw for p <= 0 and p >= 1; the lane's
  // batched block must match that draw count exactly.
  for (const double prob : {0.0, 1.0}) {
    CommunityMovementParams p;
    p.home_prob = prob;
    p.home_min = {100.0, 100.0};
    p.home_max = {900.0, 900.0};
    MovementEngine engine;
    ASSERT_EQ(engine.add_community(p), 0);
    engine.init_node(0, stream(5), 0.0);
    CommunityMovement model(p);
    model.init(stream(5), 0.0);
    expect_lockstep(engine, model, 5000);
  }
}

std::shared_ptr<const geo::Polyline> loop_route() {
  std::vector<geo::Vec2> pts{{0.0, 0.0},   {700.0, 40.0}, {900.0, 500.0},
                             {400.0, 800.0}, {-100.0, 450.0}};
  return std::make_shared<const geo::Polyline>(pts, /*closed=*/true);
}

TEST(MovementEngine, BusLaneMatchesLegacyModelExactly) {
  const auto route = loop_route();
  BusParams p;  // paper speeds, 600 m stops
  p.stop_spacing = 321.0;  // not a divisor of the loop: stops precess
  MovementEngine engine;
  ASSERT_EQ(engine.add_bus(route, p), 0);
  engine.init_node(0, stream(7), 0.0);
  BusMovement model(route, p);
  model.init(stream(7), 0.0);
  // Many loop wraps: exercises the point_at_hinted wrap fallback.
  expect_lockstep(engine, model, 30000);
}

TEST(MovementEngine, LazyBusReadsEqualEagerReference) {
  // A bus lane evaluates its route only when read. Whatever steps a reader
  // skips, each read must equal the reference model stepped and evaluated
  // every step, and the odometer must bound the distance moved since an
  // anchor read, as the contact detector's stale check assumes.
  const auto route = loop_route();
  BusParams p;
  p.stop_spacing = 321.0;  // pauses at stops that precess round the loop
  for (const int stride : {1, 3, 8, 50}) {
    SCOPED_TRACE(stride);
    MovementEngine engine;
    ASSERT_EQ(engine.add_bus(route, p), 0);
    engine.init_node(0, stream(7), 0.0);
    BusMovement model(route, p);
    model.init(stream(7), 0.0);
    geo::Vec2 anchor_pos = engine.position(0);
    double anchor_odo = engine.odometers()[0];
    int reads = 0;
    int paused_steps = 0;
    double t = 0.0;
    for (int i = 1; i <= 30000; ++i) {
      const geo::Vec2 before = model.position();
      engine.step_all(t, kDt);
      model.step(t, kDt);
      t += kDt;
      paused_steps += model.position() == before ? 1 : 0;
      // Irregular: every stride-th step, plus every 7th step past 20 000.
      if (i % stride != 0 && !(i > 20000 && i % 7 == 0)) continue;
      // Alternate the two ways a reader evaluates one node.
      geo::Vec2 got;
      if (reads % 2 == 0) {
        got = engine.position(0);
      } else {
        engine.evaluate(0);
        got = engine.last_positions()[0];
      }
      ASSERT_EQ(got.x, model.position().x) << "step " << i;
      ASSERT_EQ(got.y, model.position().y) << "step " << i;
      const double odo = engine.odometers()[0];
      ASSERT_EQ(odo, model.cursor()) << "step " << i;
      const double arc = odo - anchor_odo;
      // 1e-9 relative, plus 1 nm for the rounding of two route evaluations.
      ASSERT_LE(got.distance_to(anchor_pos), arc * (1.0 + 1e-9) + 1e-9) << "step " << i;
      if (++reads % 4 == 0) {  // re-anchor, as a candidate-list rebuild does
        anchor_pos = got;
        anchor_odo = odo;
      }
    }
    EXPECT_EQ(engine.positions()[0], model.position());
    EXPECT_GT(paused_steps, 0);                              // stopped at stops
    EXPECT_GT(model.cursor(), 3.0 * route->total_length());  // wrapped the loop
  }
}

TEST(MovementEngine, OnlyBusLanesReportAnOdometer) {
  RandomWaypointParams rw;
  rw.world_max = {300.0, 300.0};
  CommunityMovementParams cm;
  cm.home_max = {200.0, 200.0};
  StationaryNodeSpec post;
  post.pos = {5.0, 5.0};
  MovementEngine engine;
  ASSERT_EQ(engine.add_waypoint(rw), 0);
  ASSERT_EQ(engine.add_community(cm), 1);
  ASSERT_EQ(engine.add_stationary(post), 2);
  ASSERT_EQ(engine.add_custom(std::make_unique<Stationary>(geo::Vec2{3.0, 4.0})), 3);
  ASSERT_EQ(engine.add_bus(loop_route(), BusParams{}), 4);
  for (int v = 0; v < 5; ++v) engine.init_node(v, stream(static_cast<std::uint64_t>(v)), 0.0);
  for (int i = 0; i < 100; ++i) engine.step_all(i * kDt, kDt);
  for (int v = 0; v < 4; ++v) EXPECT_TRUE(std::isnan(engine.odometers()[v])) << "node " << v;
  EXPECT_TRUE(std::isfinite(engine.odometers()[4]));
}

TEST(MovementEngine, MixedLanesKeepPerNodeStreamsIndependent) {
  // One node per lane kind; each engine node must reproduce its own model
  // regardless of the others stepping in the same step_all call.
  RandomWaypointParams rw;
  rw.world_max = {300.0, 300.0};
  CommunityMovementParams cm;
  cm.home_max = {200.0, 200.0};
  const auto route = loop_route();
  BusParams bus;

  MovementEngine engine;
  ASSERT_EQ(engine.add_bus(route, bus), 0);
  ASSERT_EQ(engine.add_waypoint(rw), 1);
  ASSERT_EQ(engine.add_community(cm), 2);
  for (int v = 0; v < 3; ++v) engine.init_node(v, stream(static_cast<std::uint64_t>(v)), 0.0);

  BusMovement bus_model(route, bus);
  bus_model.init(stream(0), 0.0);
  RandomWaypoint rw_model(rw);
  rw_model.init(stream(1), 0.0);
  CommunityMovement cm_model(cm);
  cm_model.init(stream(2), 0.0);

  double t = 0.0;
  for (int i = 0; i < 8000; ++i) {
    engine.step_all(t, kDt);
    bus_model.step(t, kDt);
    rw_model.step(t, kDt);
    cm_model.step(t, kDt);
    t += kDt;
    ASSERT_EQ(engine.positions()[0], bus_model.position()) << "bus step " << i;
    ASSERT_EQ(engine.positions()[1], rw_model.position()) << "waypoint step " << i;
    ASSERT_EQ(engine.positions()[2], cm_model.position()) << "community step " << i;
  }
}

TEST(MovementEngine, CustomLaneStepsArbitraryModels) {
  MovementEngine engine;
  ASSERT_EQ(engine.add_custom(std::make_unique<Stationary>(geo::Vec2{3.0, 4.0})), 0);
  engine.init_node(0, stream(0), 0.0);
  engine.step_all(0.0, kDt);
  EXPECT_EQ(engine.positions()[0], (geo::Vec2{3.0, 4.0}));
}

TEST(MovementEngine, AddSniffsKnownModelTypesIntoLanes) {
  // add(model) must route known types into the SoA lanes — verified
  // behaviorally: the engine's trajectory equals the model's.
  RandomWaypointParams p;
  p.world_max = {250.0, 250.0};
  MovementEngine engine;
  ASSERT_EQ(engine.add(std::make_unique<RandomWaypoint>(p)), 0);
  engine.init_node(0, stream(9), 0.0);
  RandomWaypoint model(p);
  model.init(stream(9), 0.0);
  expect_lockstep(engine, model, 5000);
}

TEST(MovementEngine, ClearRetainsLanesForReuse) {
  RandomWaypointParams p;
  p.world_max = {100.0, 100.0};
  MovementEngine engine;
  engine.add_waypoint(p);
  engine.init_node(0, stream(1), 0.0);
  engine.step_all(0.0, kDt);
  engine.clear();
  EXPECT_EQ(engine.size(), 0u);
  // Re-register and verify the trajectory is that of a fresh engine.
  ASSERT_EQ(engine.add_waypoint(p), 0);
  engine.init_node(0, stream(2), 0.0);
  RandomWaypoint model(p);
  model.init(stream(2), 0.0);
  expect_lockstep(engine, model, 3000);
}

TEST(MovementEngine, ReinitRestartsTrajectoryInPlace) {
  // init_node() twice == World::reseed semantics: second trajectory must
  // equal a fresh model under the second stream.
  const auto route = loop_route();
  BusParams p;
  MovementEngine engine;
  engine.add_bus(route, p);
  engine.init_node(0, stream(1), 0.0);
  for (int i = 0; i < 500; ++i) engine.step_all(i * kDt, kDt);
  engine.init_node(0, stream(2), 0.0);
  BusMovement model(route, p);
  model.init(stream(2), 0.0);
  expect_lockstep(engine, model, 5000);
}

}  // namespace
}  // namespace dtn::mobility
