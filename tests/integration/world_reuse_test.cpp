// Cross-run World reuse differential: the PR-3 reuse paths must be
// observably inert for EVERY protocol in the repository.
//
//  - reset()+rebuild (ScenarioRunner): one World re-used across a
//    12-protocol x 2-seed community-scenario grid, each run compared
//    bit-for-bit against a fresh World, in the style of the PR-2 buffer
//    differential.
//  - reseed(): the same node set restarted under a new seed — exercises
//    Router::reset() of every stateful protocol (PRoPHET tables, MaxProp
//    likelihoods/acks, EER/CR histories + MI matrices + MEMD caches, EBR
//    windows, focus timers, delegation levels) plus in-place re-init of
//    movement lanes, buffers, traffic, and metrics.
//  - a World stopped mid-run by its deadline, with messages buffered and
//    transfers queued, continues through either path like a fresh World.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "../test_support.hpp"
#include "harness/scenario.hpp"
#include "mobility/community_movement.hpp"
#include "routing/factory.hpp"
#include "sim/world.hpp"

namespace dtn::harness {
namespace {

ScenarioSpec community_base(const std::string& protocol, std::uint64_t seed,
                            const std::string& overrides = "") {
  return test::community_spec(
      "scenario.nodes = 24\nscenario.duration = 1500\nscenario.seed = " +
      std::to_string(seed) +
      "\ncommunities.count = 3\nmap.width = 900\nmap.height = 900\ntraffic.ttl = 600\n"
      "protocol.copies = 6\nprotocol.name = " + protocol + "\n" + overrides);
}

void expect_same_run(const ScenarioResult& a, const ScenarioResult& b,
                     const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.metrics.created(), b.metrics.created());
  EXPECT_EQ(a.metrics.delivered(), b.metrics.delivered());
  EXPECT_EQ(a.metrics.relayed(), b.metrics.relayed());
  EXPECT_EQ(a.metrics.transfers_started(), b.metrics.transfers_started());
  EXPECT_EQ(a.metrics.transfers_aborted(), b.metrics.transfers_aborted());
  EXPECT_EQ(a.metrics.dropped(), b.metrics.dropped());
  EXPECT_EQ(a.metrics.expired(), b.metrics.expired());
  EXPECT_EQ(a.metrics.control_bytes(), b.metrics.control_bytes());
  EXPECT_EQ(a.contact_events, b.contact_events);
  EXPECT_EQ(a.metrics.latency_mean(), b.metrics.latency_mean());
  EXPECT_EQ(a.metrics.goodput(), b.metrics.goodput());
  EXPECT_EQ(a.metrics.hop_count_mean(), b.metrics.hop_count_mean());
}

TEST(WorldReuse, RebuiltWorldMatchesFreshAcrossAllProtocolsAndSeeds) {
  ScenarioRunner runner;  // ONE world for all 12 protocols x 2 seeds
  for (const std::string& protocol : routing::known_protocols()) {
    for (const std::uint64_t seed : {11ull, 12ull}) {
      const ScenarioSpec spec = community_base(protocol, seed);
      const ScenarioResult fresh = run_scenario(spec);
      const ScenarioResult reused = runner.run(spec);
      expect_same_run(fresh, reused,
                      protocol + "/seed=" + std::to_string(seed));
    }
  }
}

/// Builds the community scenario directly on `world` (fresh or reused via
/// reset()), reading the parsed spec's fields the way the runner's
/// community group builder does, so reseed() can be exercised on a
/// structure that is seed-independent.
void build_community_world(sim::World& world, const ScenarioSpec& spec,
                           bool add_traffic = true) {
  const GroupSpec& walkers = spec.groups.at(0);
  const double width = spec.map.params.width;
  const double height = spec.map.params.height;
  const int l = spec.communities.count;
  const double band = width / static_cast<double>(l);
  std::vector<int> cid(static_cast<std::size_t>(walkers.count));
  for (int v = 0; v < walkers.count; ++v) cid[static_cast<std::size_t>(v)] = v % l;
  auto communities = std::make_shared<const core::CommunityTable>(cid);
  routing::ProtocolConfig protocol = spec.protocol;
  protocol.communities = communities;
  for (int v = 0; v < walkers.count; ++v) {
    const int c = cid[static_cast<std::size_t>(v)];
    mobility::CommunityMovementParams mp;
    mp.world_min = {0.0, 0.0};
    mp.world_max = {width, height};
    mp.home_min = {band * c, 0.0};
    mp.home_max = {band * (c + 1), height};
    mp.home_prob = walkers.params.community.home_prob;
    world.add_node(mp, routing::create_router(protocol));
  }
  if (!add_traffic) return;
  sim::TrafficParams traffic = spec.traffic;
  traffic.stop = spec.duration_s - traffic.ttl;
  world.set_traffic(traffic);
}

TEST(WorldReuse, ReseedMatchesFreshBuildAcrossAllProtocols) {
  for (const std::string& protocol : routing::known_protocols()) {
    SCOPED_TRACE(protocol);
    const ScenarioSpec first = community_base(protocol, 21);
    const ScenarioSpec second = community_base(protocol, 22);

    // Reference: two fresh worlds.
    const ScenarioResult fresh_a = run_scenario(first);
    const ScenarioResult fresh_b = run_scenario(second);

    // Reused: one world, built once, reseeded between the runs — same
    // router INSTANCES carried across, cleared only by Router::reset().
    sim::WorldConfig config = first.world;
    config.seed = first.seed;
    sim::World world(config);
    build_community_world(world, first);
    world.run(first.duration_s);
    EXPECT_EQ(world.metrics().created(), fresh_a.metrics.created());
    EXPECT_EQ(world.metrics().delivered(), fresh_a.metrics.delivered());
    EXPECT_EQ(world.metrics().relayed(), fresh_a.metrics.relayed());
    EXPECT_EQ(world.contact_events(), fresh_a.contact_events);
    EXPECT_EQ(world.metrics().latency_mean(), fresh_a.metrics.latency_mean());

    world.reseed(second.seed);
    world.run(second.duration_s);
    EXPECT_EQ(world.metrics().created(), fresh_b.metrics.created());
    EXPECT_EQ(world.metrics().delivered(), fresh_b.metrics.delivered());
    EXPECT_EQ(world.metrics().relayed(), fresh_b.metrics.relayed());
    EXPECT_EQ(world.metrics().dropped(), fresh_b.metrics.dropped());
    EXPECT_EQ(world.metrics().expired(), fresh_b.metrics.expired());
    EXPECT_EQ(world.metrics().control_bytes(), fresh_b.metrics.control_bytes());
    EXPECT_EQ(world.contact_events(), fresh_b.contact_events);
    EXPECT_EQ(world.metrics().latency_mean(), fresh_b.metrics.latency_mean());
    EXPECT_EQ(world.metrics().goodput(), fresh_b.metrics.goodput());
  }
}

/// Runs half of `spec` on `world`, then stops it with a deadline that has
/// already passed, and clears the deadline again.
void stop_halfway(sim::World& world, const ScenarioSpec& spec) {
  world.run(spec.duration_s / 2);
  world.set_deadline(std::chrono::steady_clock::now());
  EXPECT_THROW(world.run(spec.duration_s / 2), sim::DeadlineExceeded);
  world.set_deadline(sim::Deadline::max());
}

ScenarioResult result_of(const sim::World& world) {
  return {world.metrics(), world.contact_events()};
}

class StoppedWorldReuse : public testing::TestWithParam<std::string> {};

TEST_P(StoppedWorldReuse, ResetAndReseedMatchAFreshWorld) {
  const ScenarioSpec first = community_base(GetParam(), 61);
  const ScenarioSpec second = community_base(GetParam(), 62);
  const ScenarioResult fresh = run_scenario(second);
  sim::WorldConfig config = first.world;
  config.seed = first.seed;

  sim::World rebuilt(config);
  build_community_world(rebuilt, first);
  stop_halfway(rebuilt, first);
  config.seed = second.seed;
  rebuilt.reset(config);
  build_community_world(rebuilt, second);
  rebuilt.run(second.duration_s);
  expect_same_run(result_of(rebuilt), fresh, "reset");

  config.seed = first.seed;
  sim::World reseeded(config);
  build_community_world(reseeded, first);
  stop_halfway(reseeded, first);
  reseeded.reseed(second.seed);
  reseeded.run(second.duration_s);
  expect_same_run(result_of(reseeded), fresh, "reseed");
}

INSTANTIATE_TEST_SUITE_P(Protocols, StoppedWorldReuse,
                         testing::ValuesIn(routing::known_protocols()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(WorldReuse, ReseedToSameSeedReproducesTheRun) {
  const ScenarioSpec spec = community_base("EER", 31);
  sim::WorldConfig config = spec.world;
  config.seed = spec.seed;
  sim::World world(config);
  build_community_world(world, spec);
  world.run(spec.duration_s);
  const auto created = world.metrics().created();
  const auto delivered = world.metrics().delivered();
  const auto relayed = world.metrics().relayed();
  const auto contacts = world.contact_events();
  const double latency = world.metrics().latency_mean();

  world.reseed(spec.seed);
  world.run(spec.duration_s);
  EXPECT_EQ(world.metrics().created(), created);
  EXPECT_EQ(world.metrics().delivered(), delivered);
  EXPECT_EQ(world.metrics().relayed(), relayed);
  EXPECT_EQ(world.contact_events(), contacts);
  EXPECT_EQ(world.metrics().latency_mean(), latency);
}

TEST(WorldReuse, ReseedDirectlyAfterShrinkingRebuildFinalizesFirst) {
  // reseed() must self-heal a pending rebuild (like run()/step() do): a
  // reset()+add_node rebuild to FEWER nodes followed immediately by
  // reseed() — no run in between — must trim the surplus slots, not index
  // the cleared movement lanes out of bounds.
  const ScenarioSpec big = community_base("Epidemic", 51, "scenario.nodes = 30\n");
  const ScenarioSpec small = community_base("Epidemic", 51, "scenario.nodes = 12\n");

  sim::WorldConfig config = big.world;
  config.seed = big.seed;
  sim::World world(config);
  build_community_world(world, big);
  world.run(big.duration_s);

  sim::WorldConfig small_config = small.world;
  small_config.seed = small.seed;
  world.reset(small_config);
  // No set_traffic yet, so the rebuild (12 of 30 slots) is still pending
  // when reseed() runs.
  build_community_world(world, small, /*add_traffic=*/false);
  world.reseed(52);
  sim::TrafficParams traffic = small.traffic;
  traffic.stop = small.duration_s - traffic.ttl;
  world.set_traffic(traffic);  // derives from config_.seed == 52
  world.run(small.duration_s);

  const ScenarioResult fresh =
      run_scenario(community_base("Epidemic", 52, "scenario.nodes = 12\n"));
  EXPECT_EQ(world.node_count(), 12);
  EXPECT_EQ(world.metrics().created(), fresh.metrics.created());
  EXPECT_EQ(world.metrics().delivered(), fresh.metrics.delivered());
  EXPECT_EQ(world.metrics().relayed(), fresh.metrics.relayed());
  EXPECT_EQ(world.contact_events(), fresh.contact_events);
}

TEST(WorldReuse, RebuildAcrossDifferentNodeCountsAndBufferSizes) {
  // Shrinking and growing rebuilds (including a buffer-capacity change)
  // must still match fresh worlds exactly.
  ScenarioRunner runner;
  for (const int nodes : {30, 12, 40}) {
    for (const std::int64_t buffer : {std::int64_t{1} << 20, std::int64_t{128} * 1024}) {
      const ScenarioSpec spec =
          community_base("Epidemic", 41, "scenario.nodes = " + std::to_string(nodes) +
                                             "\nworld.buffer_bytes = " + std::to_string(buffer));
      const ScenarioResult fresh = run_scenario(spec);
      const ScenarioResult reused = runner.run(spec);
      expect_same_run(fresh, reused,
                      "n=" + std::to_string(nodes) + "/buf=" + std::to_string(buffer));
    }
  }
}

}  // namespace
}  // namespace dtn::harness
