#include <gtest/gtest.h>

#include <memory>

#include "../test_support.hpp"
#include "routing/spray_and_focus.hpp"
#include "routing/spray_and_wait.hpp"

namespace dtn::routing {
namespace {

using test::make_message;
using test::pinned;
using test::scripted;
using test::test_world_config;

std::unique_ptr<SprayAndWaitRouter> snw(int copies, bool binary = true) {
  return std::make_unique<SprayAndWaitRouter>(SprayAndWaitParams{copies, binary});
}

TEST(SprayAndWait, BinarySplitHandsOverHalf) {
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}), snw(10));
  world.add_node(pinned({5.0, 0.0}), snw(10));
  world.add_node(pinned({2000.0, 0.0}), snw(10));  // unreachable destination
  world.step();
  world.inject_message(make_message(0, 0, 2));
  world.run(2.0);
  ASSERT_TRUE(world.buffer_of(0).has(0));
  ASSERT_TRUE(world.buffer_of(1).has(0));
  EXPECT_EQ(world.buffer_of(0).find(0)->replicas, 5);
  EXPECT_EQ(world.buffer_of(1).find(0)->replicas, 5);
}

TEST(SprayAndWait, SourceModeHandsOverOne) {
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}), snw(10, /*binary=*/false));
  world.add_node(pinned({5.0, 0.0}), snw(10, false));
  world.add_node(pinned({2000.0, 0.0}), snw(10, false));
  world.step();
  world.inject_message(make_message(0, 0, 2));
  world.run(2.0);
  EXPECT_EQ(world.buffer_of(0).find(0)->replicas, 9);
  EXPECT_EQ(world.buffer_of(1).find(0)->replicas, 1);
}

TEST(SprayAndWait, WaitPhaseHoldsSingleCopy) {
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}), snw(1));
  world.add_node(pinned({5.0, 0.0}), snw(1));
  world.add_node(pinned({2000.0, 0.0}), snw(1));
  world.step();
  world.inject_message(make_message(0, 0, 2));
  world.run(2.0);
  // One replica: never handed to a non-destination relay.
  EXPECT_TRUE(world.buffer_of(0).has(0));
  EXPECT_FALSE(world.buffer_of(1).has(0));
  EXPECT_EQ(world.metrics().relayed(), 0);
}

TEST(SprayAndWait, DeliversDirectlyInWaitPhase) {
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}), snw(1));
  world.add_node(pinned({5.0, 0.0}), snw(1));
  world.step();
  world.inject_message(make_message(0, 0, 1));
  world.run(2.0);
  EXPECT_EQ(world.metrics().delivered(), 1);
}

TEST(SprayAndWait, QuotaConservedAcrossSpray) {
  sim::World world(test_world_config());
  for (int i = 0; i < 4; ++i) {
    world.add_node(pinned({i * 8.0, 0.0}), snw(8));
  }
  world.add_node(pinned({5000.0, 0.0}), snw(8));  // destination, unreachable
  world.step();
  world.inject_message(make_message(0, 0, 4));
  world.run(5.0);
  int total = 0;
  for (sim::NodeIdx v = 0; v < 5; ++v) {
    const auto* sm = world.buffer_of(v).find(0);
    if (sm != nullptr) total += sm->replicas;
  }
  EXPECT_EQ(total, 8);
}

TEST(SprayAndFocus, ForwardsSingleCopyTowardFresherTimer) {
  // Node 1 met the destination (2) recently; node 0 holds the last copy and
  // should hand it to node 1 in the focus phase.
  sim::World world(test_world_config());
  auto r0 = std::make_unique<SprayAndFocusRouter>(SprayAndFocusParams{1, true, 60.0, 1.0});
  auto r1 = std::make_unique<SprayAndFocusRouter>(SprayAndFocusParams{1, true, 60.0, 1.0});
  auto r2 = std::make_unique<SprayAndFocusRouter>(SprayAndFocusParams{1, true, 60.0, 1.0});
  world.add_node(pinned({0.0, 0.0}), std::move(r0));
  // Node 1 visits destination 2 early, then returns near node 0.
  world.add_node(scripted({{0.0, {100.0, 0.0}},
                           {10.0, {100.0, 0.0}},
                           {20.0, {5.0, 0.0}},
                           {1000.0, {5.0, 0.0}}}),
                 std::move(r1));
  world.add_node(pinned({105.0, 0.0}), std::move(r2));
  world.run(15.0);  // node 1 in contact with 2 at start
  world.inject_message(make_message(0, 0, 2));
  world.run(15.0);  // node 1 arrives at node 0; focus forwarding happens
  EXPECT_TRUE(world.buffer_of(1).has(0));
  EXPECT_FALSE(world.buffer_of(0).has(0));
}

TEST(SprayAndFocus, AdoptedTimerTakesConstantPenalty) {
  // Node 1 meets the destination (2), then drives 95 m to node 0. Node 0
  // adopts node 1's timer less a fixed transitivity_s, whatever the
  // distance node 1 covered since (the original scales it by distance).
  sim::World world(test_world_config());
  auto r0 = std::make_unique<SprayAndFocusRouter>(SprayAndFocusParams{1, true, 60.0, 1.0});
  auto r1 = std::make_unique<SprayAndFocusRouter>(SprayAndFocusParams{1, true, 60.0, 1.0});
  const SprayAndFocusRouter* node0 = r0.get();
  const SprayAndFocusRouter* node1 = r1.get();
  world.add_node(pinned({0.0, 0.0}), std::move(r0));
  world.add_node(scripted({{0.0, {100.0, 0.0}},
                           {10.0, {100.0, 0.0}},
                           {20.0, {5.0, 0.0}},
                           {1000.0, {5.0, 0.0}}}),
                 std::move(r1));
  world.add_node(pinned({105.0, 0.0}),
                 std::make_unique<SprayAndFocusRouter>(SprayAndFocusParams{1}));
  world.run(30.0);
  ASSERT_GT(node1->last_seen(2), -1e300);
  EXPECT_EQ(node0->last_seen(2), node1->last_seen(2) - 60.0);
}

TEST(SprayAndFocus, DoesNotForwardToWorseTimer) {
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}),
                 std::make_unique<SprayAndFocusRouter>(SprayAndFocusParams{1}));
  world.add_node(pinned({5.0, 0.0}),
                 std::make_unique<SprayAndFocusRouter>(SprayAndFocusParams{1}));
  world.add_node(pinned({2000.0, 0.0}),
                 std::make_unique<SprayAndFocusRouter>(SprayAndFocusParams{1}));
  world.step();
  world.inject_message(make_message(0, 0, 2));
  world.run(2.0);
  // Neither node ever met the destination: timers equal (-inf), no forward.
  EXPECT_TRUE(world.buffer_of(0).has(0));
  EXPECT_FALSE(world.buffer_of(1).has(0));
}

TEST(SprayAndFocus, SprayPhaseStillSplits) {
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}),
                 std::make_unique<SprayAndFocusRouter>(SprayAndFocusParams{10}));
  world.add_node(pinned({5.0, 0.0}),
                 std::make_unique<SprayAndFocusRouter>(SprayAndFocusParams{10}));
  world.add_node(pinned({2000.0, 0.0}),
                 std::make_unique<SprayAndFocusRouter>(SprayAndFocusParams{10}));
  world.step();
  world.inject_message(make_message(0, 0, 2));
  world.run(2.0);
  EXPECT_EQ(world.buffer_of(0).find(0)->replicas, 5);
  EXPECT_EQ(world.buffer_of(1).find(0)->replicas, 5);
}

}  // namespace
}  // namespace dtn::routing
