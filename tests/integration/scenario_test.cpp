// Integration: the bus and community scenarios end-to-end at reduced scale.
#include "harness/scenario.hpp"

#include <gtest/gtest.h>

#include "../test_support.hpp"

namespace dtn::harness {
namespace {

ScenarioSpec small_bus(const std::string& protocol, const std::string& overrides = "") {
  return test::paper_bus_spec(
      "scenario.nodes = 24\nscenario.duration = 2000\nscenario.seed = 7\n"
      "map.rows = 8\nmap.cols = 10\nmap.block = 150\nmap.districts = 3\n"
      "map.routes_per_district = 2\nprotocol.copies = 6\nprotocol.name = " + protocol +
      "\n" + overrides);
}

TEST(BusScenario, ProducesContactsAndTraffic) {
  const ScenarioResult r = run_scenario(small_bus("Epidemic"));
  EXPECT_GT(r.contact_events, 0);
  EXPECT_GT(r.metrics.created(), 0);
}

TEST(BusScenario, EpidemicDeliversSomething) {
  const ScenarioResult r = run_scenario(small_bus("Epidemic"));
  EXPECT_GT(r.metrics.delivered(), 0);
  EXPECT_GT(r.metrics.delivery_ratio(), 0.0);
  EXPECT_LE(r.metrics.delivery_ratio(), 1.0);
}

TEST(BusScenario, EerRunsAndDelivers) {
  const ScenarioResult r = run_scenario(small_bus("EER"));
  EXPECT_GT(r.metrics.delivered(), 0);
  EXPECT_GT(r.metrics.goodput(), 0.0);
}

TEST(BusScenario, CrRunsAndDelivers) {
  const ScenarioResult r = run_scenario(small_bus("CR"));
  EXPECT_GT(r.metrics.delivered(), 0);
}

TEST(BusScenario, CommunitiesMatchRouteDistricts) {
  // The "auto" assignment the runner applies to a bus group: round-robin
  // routes, community = the route's district.
  const ScenarioSpec spec = test::paper_bus_spec(
      "scenario.nodes = 12\nscenario.seed = 5\nmap.districts = 3\nmap.routes_per_district = 2\n");
  const geo::BuiltMap map =
      geo::find_map_kind(spec.map.kind)->build(spec.map.params, spec.seed);
  ASSERT_TRUE(map.network.has_value());
  std::vector<int> cid;
  const GroupBuildContext ctx{spec, map, {}};
  find_group_builder("bus")->assign_communities(ctx, spec.groups[0], cid);
  ASSERT_EQ(cid.size(), 12u);
  const auto& routes = map.network->routes;
  for (int v = 0; v < 12; ++v) {
    EXPECT_EQ(cid[static_cast<std::size_t>(v)],
              routes[static_cast<std::size_t>(v) % routes.size()].district);
  }
}

TEST(BusScenario, TrafficStopsBeforeTtlWindowEnds) {
  const ScenarioResult r =
      run_scenario(small_bus("DirectDelivery", "traffic.ttl = 600\nscenario.duration = 1500\n"));
  // Expected message count ~ (1500 - 600) / 30 = 30.
  EXPECT_LE(r.metrics.created(), 40);
  EXPECT_GT(r.metrics.created(), 20);
}

TEST(CommunityScenario, RunsWithCr) {
  const ScenarioResult r = run_scenario(test::community_spec(
      "scenario.nodes = 20\nscenario.duration = 1500\nscenario.seed = 3\n"
      "communities.count = 4\nmap.width = 600\nmap.height = 600\nworld.radio_range = 30\n"
      "protocol.name = CR\nprotocol.copies = 4\n"));
  EXPECT_GT(r.contact_events, 0);
  EXPECT_GT(r.metrics.created(), 0);
}

TEST(CommunityScenario, IntraCommunityContactsDominate) {
  // Verify the mobility substrate produces the community contact asymmetry
  // CR assumes: count contacts within vs across districts directly.
  const ScenarioResult r = run_scenario(test::community_spec(
      "scenario.nodes = 16\nscenario.duration = 1200\n"
      "traffic.ttl = 600\n"  // full_ttl_window needs ttl < duration
      "communities.count = 4\nmap.width = 800\nmap.height = 800\n"
      "group.walkers.home_prob = 0.9\nworld.radio_range = 25\nprotocol.name = Epidemic\n"));
  EXPECT_GT(r.contact_events, 10);
}

}  // namespace
}  // namespace dtn::harness
