// Cross-protocol invariants on full simulation runs: the accounting
// identities the metrics must satisfy no matter the protocol.
#include <gtest/gtest.h>

#include "../test_support.hpp"
#include "harness/scenario.hpp"

namespace dtn::harness {
namespace {

ScenarioSpec scenario(const std::string& protocol) {
  return test::paper_bus_spec(
      "scenario.nodes = 24\nscenario.duration = 2000\nscenario.seed = 21\n"
      "map.rows = 8\nmap.cols = 10\nmap.districts = 3\nmap.routes_per_district = 2\n"
      "protocol.copies = 6\nprotocol.name = " + protocol + "\n");
}

class InvariantsTest : public ::testing::TestWithParam<const char*> {};

TEST_P(InvariantsTest, MetricsIdentitiesHold) {
  const ScenarioResult r = run_scenario(scenario(GetParam()));
  const sim::Metrics& m = r.metrics;

  EXPECT_GE(m.created(), 0);
  EXPECT_LE(m.delivered(), m.created()) << "can't deliver the ungenerated";
  EXPECT_GE(m.delivery_ratio(), 0.0);
  EXPECT_LE(m.delivery_ratio(), 1.0);
  EXPECT_GE(m.goodput(), 0.0);
  EXPECT_LE(m.goodput(), 1.0 + 1e-12)
      << "every delivery is a completed relay, so goodput <= 1";
  EXPECT_LE(m.relayed(), m.transfers_started());
  EXPECT_LE(m.transfers_aborted(), m.transfers_started());

  if (m.delivered() > 0) {
    // Latency within (0, TTL]: deliveries past TTL never count.
    EXPECT_GT(m.latency_stats().min(), 0.0);
    EXPECT_LE(m.latency_stats().max(), 1200.0 + 1e-9);
    EXPECT_GE(m.hop_count_mean(), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, InvariantsTest,
                         ::testing::Values("Epidemic", "DirectDelivery", "SprayAndWait",
                                           "SprayAndFocus", "EBR", "MaxProp", "PRoPHET",
                                           "EER", "CR"));

TEST(Invariants, DirectDeliveryGoodputIsOne) {
  const ScenarioResult r = run_scenario(scenario("DirectDelivery"));
  if (r.metrics.relayed() > 0) {
    // Every relay of DirectDelivery IS a delivery attempt to the
    // destination; duplicates are impossible with a single copy.
    EXPECT_DOUBLE_EQ(r.metrics.goodput(), 1.0);
  }
}

TEST(Invariants, EpidemicDeliversAtLeastAsMuchAsDirect) {
  const auto direct = run_scenario(scenario("DirectDelivery"));
  const auto epidemic = run_scenario(scenario("Epidemic"));
  EXPECT_GE(epidemic.metrics.delivered(), direct.metrics.delivered());
}

TEST(Invariants, QuotaProtocolsRelayLessThanEpidemic) {
  const auto epidemic = run_scenario(scenario("Epidemic"));
  const auto snw = run_scenario(scenario("SprayAndWait"));
  const auto eer = run_scenario(scenario("EER"));
  EXPECT_LT(snw.metrics.relayed(), epidemic.metrics.relayed());
  EXPECT_LT(eer.metrics.relayed(), epidemic.metrics.relayed());
}

}  // namespace
}  // namespace dtn::harness
