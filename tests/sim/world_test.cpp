#include "sim/world.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "../test_support.hpp"

namespace dtn::sim {
namespace {

using test::RecordingRouter;
using test::make_message;
using test::pinned;
using test::scripted;
using test::test_world_config;

struct TwoNodeWorld {
  std::unique_ptr<World> world;
  RecordingRouter* r0 = nullptr;
  RecordingRouter* r1 = nullptr;
};

TwoNodeWorld make_two_pinned(double distance, WorldConfig config = test_world_config()) {
  TwoNodeWorld w;
  w.world = std::make_unique<World>(config);
  auto router0 = std::make_unique<RecordingRouter>();
  auto router1 = std::make_unique<RecordingRouter>();
  w.r0 = router0.get();
  w.r1 = router1.get();
  w.world->add_node(pinned({0.0, 0.0}), std::move(router0));
  w.world->add_node(pinned({distance, 0.0}), std::move(router1));
  return w;
}

TEST(World, ContactUpWhenWithinRange) {
  auto w = make_two_pinned(5.0);
  w.world->step();
  ASSERT_EQ(w.r0->contacts_up.size(), 1u);
  EXPECT_EQ(w.r0->contacts_up[0], 1);
  ASSERT_EQ(w.r1->contacts_up.size(), 1u);
  EXPECT_EQ(w.r1->contacts_up[0], 0);
  EXPECT_TRUE(w.world->in_contact(0, 1));
  EXPECT_EQ(w.world->neighbors_of(0), (std::vector<NodeIdx>{1}));
  EXPECT_EQ(w.world->contact_events(), 1);
}

TEST(World, NoContactBeyondRange) {
  auto w = make_two_pinned(15.0);
  w.world->run(1.0);
  EXPECT_TRUE(w.r0->contacts_up.empty());
  EXPECT_FALSE(w.world->in_contact(0, 1));
}

TEST(World, ContactAtExactRangeBoundary) {
  auto w = make_two_pinned(10.0);  // exactly the radio range: in contact
  w.world->step();
  EXPECT_TRUE(w.world->in_contact(0, 1));
}

TEST(World, ContactDownWhenNodesSeparate) {
  WorldConfig config = test_world_config();
  World world(config);
  auto router0 = std::make_unique<RecordingRouter>();
  auto router1 = std::make_unique<RecordingRouter>();
  RecordingRouter* r0 = router0.get();
  world.add_node(pinned({0.0, 0.0}), std::move(router0));
  world.add_node(scripted({{0.0, {5.0, 0.0}}, {5.0, {5.0, 0.0}}, {6.0, {100.0, 0.0}}}),
                 std::move(router1));
  world.run(10.0);
  ASSERT_EQ(r0->contacts_up.size(), 1u);
  ASSERT_EQ(r0->contacts_down.size(), 1u);
  EXPECT_EQ(r0->contacts_down[0], 1);
  EXPECT_FALSE(world.in_contact(0, 1));
}

TEST(World, MessageInjectionStoresAtSource) {
  auto w = make_two_pinned(5.0);
  w.world->inject_message(make_message(0, 0, 1));
  EXPECT_TRUE(w.world->buffer_of(0).has(0));
  EXPECT_EQ(w.r0->created, (std::vector<MsgId>{0}));
  EXPECT_EQ(w.world->metrics().created(), 1);
}

TEST(World, TransferDeliversToDestination) {
  auto w = make_two_pinned(5.0);
  w.world->step();  // contact up
  w.world->inject_message(make_message(0, 0, 1));
  ASSERT_TRUE(w.r0->send_copy(1, 0, 1, 0));
  // 25 KB at 2 Mbps = 25600 / 25000 bytes-per-step -> 2 steps.
  w.world->step();
  EXPECT_EQ(w.world->metrics().delivered(), 0);
  w.world->step();
  EXPECT_EQ(w.world->metrics().delivered(), 1);
  EXPECT_EQ(w.world->metrics().relayed(), 1);
  EXPECT_NEAR(w.world->metrics().latency_mean(), 0.3, 1e-9);
  ASSERT_EQ(w.r0->successes.size(), 1u);
  EXPECT_TRUE(w.r0->successes[0].delivered);
  EXPECT_EQ(w.r0->delivered_ids, (std::vector<MsgId>{0}));
  EXPECT_EQ(w.r1->delivered_ids, (std::vector<MsgId>{0}));
  // Sender copy removed after delivery; destination does not store.
  EXPECT_FALSE(w.world->buffer_of(0).has(0));
  EXPECT_FALSE(w.world->buffer_of(1).has(0));
}

TEST(World, DuplicateArrivalMergesReplicas) {
  WorldConfig config = test_world_config();
  World world(config);
  auto router0 = std::make_unique<RecordingRouter>(8);
  RecordingRouter* r0 = router0.get();
  world.add_node(pinned({0.0, 0.0}), std::move(router0));
  world.add_node(pinned({5.0, 0.0}), std::make_unique<RecordingRouter>());
  world.add_node(pinned({2000.0, 0.0}), std::make_unique<RecordingRouter>());
  world.step();
  world.inject_message(make_message(0, 0, 2));
  ASSERT_TRUE(r0->send_copy(1, 0, 2, 2));
  world.run(1.0);  // first copy lands: peer holds 2 replicas
  ASSERT_TRUE(world.buffer_of(1).has(0));
  EXPECT_EQ(world.buffer_of(1).find(0)->replicas, 2);
  // Second hand-over of 3 more replicas merges into the existing copy.
  ASSERT_TRUE(r0->send_copy(1, 0, 3, 3));
  world.run(1.0);
  EXPECT_EQ(world.buffer_of(1).find(0)->replicas, 5);
  EXPECT_EQ(world.buffer_of(0).find(0)->replicas, 3);  // 8 - 2 - 3
}

TEST(World, ThreeNodeRelayChain) {
  WorldConfig config = test_world_config();
  World world(config);
  auto router0 = std::make_unique<RecordingRouter>(4);
  auto router1 = std::make_unique<RecordingRouter>();
  auto router2 = std::make_unique<RecordingRouter>();
  RecordingRouter* r0 = router0.get();
  RecordingRouter* r1 = router1.get();
  world.add_node(pinned({0.0, 0.0}), std::move(router0));
  world.add_node(pinned({5.0, 0.0}), std::move(router1));
  world.add_node(pinned({1000.0, 0.0}), std::move(router2));  // unreachable dst
  world.step();
  world.inject_message(make_message(0, 0, 2));
  ASSERT_TRUE(r0->send_copy(1, 0, 2, 2));  // hand 2 of 4 replicas to relay
  world.step();
  world.step();
  // Receiver stored the copy with 2 replicas; sender kept 2.
  ASSERT_TRUE(world.buffer_of(1).has(0));
  EXPECT_EQ(world.buffer_of(1).find(0)->replicas, 2);
  EXPECT_EQ(world.buffer_of(1).find(0)->hop_count, 1);
  ASSERT_TRUE(world.buffer_of(0).has(0));
  EXPECT_EQ(world.buffer_of(0).find(0)->replicas, 2);
  ASSERT_EQ(r1->received.size(), 1u);
  EXPECT_EQ(r1->received[0].from, 0);
  EXPECT_EQ(world.metrics().delivered(), 0);
}

TEST(World, ForwardRemovesSenderCopy) {
  auto w = make_two_pinned(5.0);
  // Third node as destination, out of range.
  // (re-build world with 3 nodes)
  WorldConfig config = test_world_config();
  World world(config);
  auto router0 = std::make_unique<RecordingRouter>();
  auto router1 = std::make_unique<RecordingRouter>();
  RecordingRouter* r0 = router0.get();
  world.add_node(pinned({0.0, 0.0}), std::move(router0));
  world.add_node(pinned({5.0, 0.0}), std::move(router1));
  world.add_node(pinned({1000.0, 0.0}), std::make_unique<RecordingRouter>());
  world.step();
  world.inject_message(make_message(0, 0, 2));
  ASSERT_TRUE(r0->send_copy(1, 0, 1, 1));  // forward single copy
  world.step();
  world.step();
  EXPECT_FALSE(world.buffer_of(0).has(0));
  EXPECT_TRUE(world.buffer_of(1).has(0));
}

TEST(World, TransferRefusals) {
  auto w = make_two_pinned(5.0);
  w.world->inject_message(make_message(0, 0, 1));
  // Not in contact yet (no step taken).
  EXPECT_FALSE(w.r0->send_copy(1, 0, 1, 0));
  w.world->step();
  EXPECT_FALSE(w.r0->send_copy(1, 99, 1, 0));  // unknown message
  EXPECT_FALSE(w.r0->send_copy(0, 0, 1, 0));   // self
  EXPECT_FALSE(w.r0->send_copy(1, 0, 0, 0));   // zero replicas
  EXPECT_FALSE(w.r0->send_copy(1, 0, 1, 5));   // deduct exceeds held replicas
  EXPECT_TRUE(w.r0->send_copy(1, 0, 1, 0));
  EXPECT_FALSE(w.r0->send_copy(1, 0, 1, 0));   // duplicate on same connection
}

TEST(World, PeerHasSeesQueuedTransfers) {
  auto w = make_two_pinned(5.0);
  w.world->step();
  w.world->inject_message(make_message(0, 0, 1));
  w.world->inject_message(make_message(1, 0, 1));
  EXPECT_FALSE(w.world->peer_has(1, 1));
  // Queue message 1 toward peer: peer_has must now report it.
  ASSERT_TRUE(w.r0->send_copy(1, 1, 1, 0));
  EXPECT_TRUE(w.world->peer_has(1, 1));
}

TEST(World, AbortOnContactBreak) {
  WorldConfig config = test_world_config();
  config.bitrate_bps = 1000.0;  // 25 KB would take ~205 s
  World world(config);
  auto router0 = std::make_unique<RecordingRouter>();
  RecordingRouter* r0 = router0.get();
  world.add_node(pinned({0.0, 0.0}), std::move(router0));
  world.add_node(scripted({{0.0, {5.0, 0.0}}, {2.0, {5.0, 0.0}}, {3.0, {500.0, 0.0}}}),
                 std::make_unique<RecordingRouter>());
  world.step();
  world.inject_message(make_message(0, 0, 1));
  ASSERT_TRUE(r0->send_copy(1, 0, 1, 0));
  world.run(5.0);
  EXPECT_EQ(world.metrics().transfers_aborted(), 1);
  EXPECT_EQ(world.metrics().delivered(), 0);
  EXPECT_TRUE(world.buffer_of(0).has(0));  // sender keeps its copy
}

TEST(World, HalfDuplexSerializesTransfers) {
  auto w = make_two_pinned(5.0);
  w.world->step();
  w.world->inject_message(make_message(0, 0, 1));
  w.world->inject_message(make_message(1, 0, 1));
  ASSERT_TRUE(w.r0->send_copy(1, 0, 1, 0));
  ASSERT_TRUE(w.r0->send_copy(1, 1, 1, 0));
  // 25 KB = 25600 B; 25000 B/step at 2 Mbps. Serialized on one half-duplex
  // link: msg 1 completes during step 2, msg 2 during step 3 (the leftover
  // step-2 budget flows to it).
  w.world->step();
  EXPECT_EQ(w.world->metrics().delivered(), 0);
  w.world->step();
  EXPECT_EQ(w.world->metrics().delivered(), 1);
  w.world->step();
  EXPECT_EQ(w.world->metrics().delivered(), 2);
}

TEST(World, TtlExpiryRemovesCopies) {
  auto w = make_two_pinned(50.0);  // never in contact
  Message m = make_message(0, 0, 1, 0.0, 20.0);
  w.world->inject_message(m);
  EXPECT_TRUE(w.world->buffer_of(0).has(0));
  w.world->run(35.0);  // sweep interval 10 s: expiry processed by t<=30
  EXPECT_FALSE(w.world->buffer_of(0).has(0));
  EXPECT_GE(w.world->metrics().expired(), 1);
}

TEST(World, LateDeliveryDoesNotCount) {
  WorldConfig config = test_world_config();
  config.ttl_sweep_interval = 1e9;  // disable sweeps; test delivery-time check
  World world(config);
  auto router0 = std::make_unique<RecordingRouter>();
  RecordingRouter* r0 = router0.get();
  world.add_node(pinned({0.0, 0.0}), std::move(router0));
  world.add_node(pinned({5.0, 0.0}), std::make_unique<RecordingRouter>());
  world.step();
  world.inject_message(make_message(0, 0, 1, 0.0, /*ttl=*/0.15));
  ASSERT_TRUE(r0->send_copy(1, 0, 1, 0));
  world.run(1.0);  // completes at t=0.3 > expiry 0.15
  EXPECT_EQ(world.metrics().delivered(), 0);
}

TEST(World, BufferOverflowEvictsOldest) {
  WorldConfig config = test_world_config();
  config.buffer_bytes = 60 * 1024;  // fits two 25 KB messages
  World world(config);
  world.add_node(pinned({0.0, 0.0}), std::make_unique<RecordingRouter>());
  world.add_node(pinned({500.0, 0.0}), std::make_unique<RecordingRouter>());
  world.inject_message(make_message(0, 0, 1));
  world.inject_message(make_message(1, 0, 1));
  world.inject_message(make_message(2, 0, 1));  // evicts message 0
  EXPECT_FALSE(world.buffer_of(0).has(0));
  EXPECT_TRUE(world.buffer_of(0).has(1));
  EXPECT_TRUE(world.buffer_of(0).has(2));
  EXPECT_EQ(world.metrics().dropped(), 1);
}

TEST(World, OversizedMessageRejected) {
  WorldConfig config = test_world_config();
  config.buffer_bytes = 10 * 1024;
  World world(config);
  world.add_node(pinned({0.0, 0.0}), std::make_unique<RecordingRouter>());
  world.add_node(pinned({500.0, 0.0}), std::make_unique<RecordingRouter>());
  world.inject_message(make_message(0, 0, 1));  // 25 KB > 10 KB capacity
  EXPECT_FALSE(world.buffer_of(0).has(0));
  EXPECT_EQ(world.metrics().dropped(), 1);
  EXPECT_EQ(world.metrics().created(), 1);  // still counts as generated
}

TEST(World, TrafficGeneratorCreatesMessages) {
  WorldConfig config = test_world_config();
  World world(config);
  for (int i = 0; i < 4; ++i) {
    world.add_node(pinned({i * 500.0, 0.0}), std::make_unique<RecordingRouter>());
  }
  TrafficParams traffic;
  traffic.interval_min = 10.0;
  traffic.interval_max = 10.0;
  world.set_traffic(traffic);
  world.run(100.0);
  // Creations at t = 10, 20, ... — 9 or 10 depending on the boundary step.
  EXPECT_GE(world.metrics().created(), 9);
  EXPECT_LE(world.metrics().created(), 10);
}

TEST(World, QuotaConservedAcrossSplit) {
  WorldConfig config = test_world_config();
  World world(config);
  auto router0 = std::make_unique<RecordingRouter>(10);
  RecordingRouter* r0 = router0.get();
  world.add_node(pinned({0.0, 0.0}), std::move(router0));
  world.add_node(pinned({5.0, 0.0}), std::make_unique<RecordingRouter>());
  world.add_node(pinned({2000.0, 0.0}), std::make_unique<RecordingRouter>());
  world.step();
  world.inject_message(make_message(0, 0, 2));
  ASSERT_TRUE(r0->send_copy(1, 0, 4, 4));
  world.run(1.0);
  const int total = world.buffer_of(0).find(0)->replicas +
                    world.buffer_of(1).find(0)->replicas;
  EXPECT_EQ(total, 10);
}

}  // namespace
}  // namespace dtn::sim
