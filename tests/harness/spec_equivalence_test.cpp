// Spec-vs-hand-rolled equivalence: the ScenarioSpec execution path must
// reproduce hand-rolled scenario builders BIT FOR BIT. The reference
// builders live in this test (fresh World, the exact construction order
// the pre-spec scenario code used) and read their inputs from the parsed
// spec's fields; every protocol × seed must match on every integer metric
// and the exact float aggregates.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "../test_support.hpp"
#include "harness/scenario.hpp"
#include "harness/spec_io.hpp"
#include "mobility/bus_movement.hpp"
#include "mobility/community_movement.hpp"

namespace dtn::harness {
namespace {

ScenarioSpec small_bus(const std::string& protocol, std::uint64_t seed) {
  return test::paper_bus_spec(
      "scenario.nodes = 24\nscenario.duration = 1500\nscenario.seed = " +
      std::to_string(seed) +
      "\nmap.rows = 6\nmap.cols = 8\nmap.districts = 3\nmap.routes_per_district = 2\n"
      "traffic.ttl = 600\nprotocol.copies = 6\nprotocol.name = " + protocol + "\n");
}

/// A hand-rolled bus World: downtown map, round-robin routes, community =
/// route district, one router per bus.
ScenarioResult reference_run_bus(const ScenarioSpec& spec) {
  const GroupSpec& buses = spec.groups.at(0);
  geo::DowntownParams map_params = spec.map.params.downtown;
  map_params.seed = spec.seed;
  const geo::BusNetwork net = geo::generate_downtown(map_params);
  std::vector<std::shared_ptr<const geo::Polyline>> routes;
  routes.reserve(net.routes.size());
  for (const auto& r : net.routes) {
    routes.push_back(std::make_shared<const geo::Polyline>(r.line));
  }
  std::vector<int> cid(static_cast<std::size_t>(buses.count));
  for (int v = 0; v < buses.count; ++v) {
    cid[static_cast<std::size_t>(v)] =
        net.routes[static_cast<std::size_t>(v) % net.routes.size()].district;
  }
  sim::WorldConfig world_config = spec.world;
  world_config.seed = spec.seed;
  sim::World world(world_config);
  routing::ProtocolConfig protocol = spec.protocol;
  protocol.communities = std::make_shared<const core::CommunityTable>(cid);
  for (int v = 0; v < buses.count; ++v) {
    const std::size_t route_idx = static_cast<std::size_t>(v) % routes.size();
    world.add_node(routes[route_idx], buses.params.bus, routing::create_router(protocol));
  }
  sim::TrafficParams traffic = spec.traffic;
  if (spec.full_ttl_window) traffic.stop = spec.duration_s - traffic.ttl;
  world.set_traffic(traffic);
  world.run(spec.duration_s);
  ScenarioResult result;
  result.metrics = world.metrics();
  result.contact_events = world.contact_events();
  return result;
}

/// A hand-rolled community World: open field tiled into communities.count
/// vertical home bands, node v homed in band v % count.
ScenarioResult reference_run_community(const ScenarioSpec& spec) {
  const GroupSpec& walkers = spec.groups.at(0);
  const double width = spec.map.params.width;
  const double height = spec.map.params.height;
  const int l = spec.communities.count > 0 ? spec.communities.count : 1;
  const double band = width / static_cast<double>(l);
  std::vector<int> cid(static_cast<std::size_t>(walkers.count));
  for (int v = 0; v < walkers.count; ++v) {
    cid[static_cast<std::size_t>(v)] = v % l;
  }
  auto communities = std::make_shared<const core::CommunityTable>(cid);
  sim::WorldConfig world_config = spec.world;
  world_config.seed = spec.seed;
  sim::World world(world_config);
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
  sim::TrafficParams traffic = spec.traffic;
  if (spec.full_ttl_window) traffic.stop = spec.duration_s - traffic.ttl;
  world.set_traffic(traffic);
  world.run(spec.duration_s);
  ScenarioResult result;
  result.metrics = world.metrics();
  result.contact_events = world.contact_events();
  return result;
}

void expect_identical(const ScenarioResult& reference, const ScenarioResult& spec) {
  EXPECT_EQ(reference.metrics.created(), spec.metrics.created());
  EXPECT_EQ(reference.metrics.delivered(), spec.metrics.delivered());
  EXPECT_EQ(reference.metrics.relayed(), spec.metrics.relayed());
  EXPECT_EQ(reference.metrics.transfers_aborted(), spec.metrics.transfers_aborted());
  EXPECT_EQ(reference.metrics.dropped(), spec.metrics.dropped());
  EXPECT_EQ(reference.metrics.expired(), spec.metrics.expired());
  EXPECT_EQ(reference.metrics.control_bytes(), spec.metrics.control_bytes());
  EXPECT_EQ(reference.contact_events, spec.contact_events);
  EXPECT_EQ(reference.metrics.latency_mean(), spec.metrics.latency_mean());
  EXPECT_EQ(reference.metrics.delivery_ratio(), spec.metrics.delivery_ratio());
  EXPECT_EQ(reference.metrics.goodput(), spec.metrics.goodput());
}

TEST(SpecEquivalence, BusSpecMatchesLegacyBuilderAllProtocolsTwoSeeds) {
  ScenarioRunner runner;  // one reused world across the whole grid
  for (const auto& protocol : routing::known_protocols()) {
    for (const std::uint64_t seed : {7u, 8u}) {
      const ScenarioSpec spec = small_bus(protocol, seed);
      SCOPED_TRACE(protocol + "/seed=" + std::to_string(seed));
      const ScenarioResult reference = reference_run_bus(spec);
      const ScenarioResult via_spec = runner.run(spec);
      expect_identical(reference, via_spec);
    }
  }
}

TEST(SpecEquivalence, BusSpecSurvivesConfigFileRoundTripExecution) {
  // Not just the in-memory spec: the SERIALIZED form must run identically.
  const ScenarioSpec spec = small_bus("EER", 9);
  const ScenarioResult direct = reference_run_bus(spec);
  const ScenarioSpec reparsed = parse_spec(to_config(spec));
  const ScenarioResult via_file = run_scenario(reparsed);
  expect_identical(direct, via_file);
}

TEST(SpecEquivalence, CommunitySpecMatchesLegacyBuilder) {
  ScenarioRunner runner;
  for (const std::string protocol : {"CR", "EER", "SprayAndWait", "Epidemic"}) {
    for (const std::uint64_t seed : {3u, 4u}) {
      const ScenarioSpec spec = test::community_spec(
          "scenario.nodes = 20\nscenario.duration = 1500\ncommunities.count = 4\n"
          "map.width = 600\nmap.height = 600\nworld.radio_range = 30\n"
          "protocol.copies = 4\nprotocol.name = " + protocol +
          "\nscenario.seed = " + std::to_string(seed) + "\n");
      SCOPED_TRACE(protocol + "/seed=" + std::to_string(seed));
      const ScenarioResult reference = reference_run_community(spec);
      const ScenarioResult via_spec = runner.run(spec);
      expect_identical(reference, via_spec);
    }
  }
}

TEST(SpecEquivalence, MixedGroupsRun) {
  // The capability the pre-spec builders could not express: two mobility
  // models in one world. Sanity-level assertions (no hand-rolled reference
  // exists, by definition).
  ScenarioSpec spec = parse_spec(
      "scenario.duration = 1200\n"
      "scenario.seed = 6\n"
      "map.kind = downtown\n"
      "map.rows = 6\nmap.cols = 8\nmap.districts = 2\nmap.routes_per_district = 2\n"
      "world.radio_range = 20\n"
      "traffic.ttl = 400\n"
      "group.buses.model = bus\n"
      "group.buses.count = 12\n"
      "group.walkers.model = random_waypoint\n"
      "group.walkers.count = 12\n"
      "protocol.name = Epidemic\n");
  const ScenarioResult r = run_scenario(spec);
  EXPECT_GT(r.contact_events, 0);
  EXPECT_GT(r.metrics.created(), 0);
}

}  // namespace
}  // namespace dtn::harness
