// Bit-for-bit reproducibility: identical seeds give identical runs,
// different seeds give different runs, across protocols.
#include <gtest/gtest.h>

#include "../test_support.hpp"
#include "harness/scenario.hpp"

namespace dtn::harness {
namespace {

ScenarioSpec base(const std::string& protocol, std::uint64_t seed) {
  return test::paper_bus_spec(
      "scenario.nodes = 20\nscenario.duration = 1500\nscenario.seed = " +
      std::to_string(seed) +
      "\nmap.rows = 6\nmap.cols = 8\nmap.districts = 2\nmap.routes_per_district = 2\n"
      "protocol.copies = 6\nprotocol.name = " + protocol + "\n");
}

class DeterminismTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DeterminismTest, SameSeedSameMetrics) {
  const auto a = run_scenario(base(GetParam(), 11));
  const auto b = run_scenario(base(GetParam(), 11));
  EXPECT_EQ(a.metrics.created(), b.metrics.created());
  EXPECT_EQ(a.metrics.delivered(), b.metrics.delivered());
  EXPECT_EQ(a.metrics.relayed(), b.metrics.relayed());
  EXPECT_EQ(a.metrics.dropped(), b.metrics.dropped());
  EXPECT_EQ(a.contact_events, b.contact_events);
  EXPECT_DOUBLE_EQ(a.metrics.latency_mean(), b.metrics.latency_mean());
  EXPECT_EQ(a.metrics.control_bytes(), b.metrics.control_bytes());
}

TEST_P(DeterminismTest, DifferentSeedDifferentRun) {
  const auto a = run_scenario(base(GetParam(), 11));
  const auto b = run_scenario(base(GetParam(), 12));
  // Contact structure differs with the seed (map + traffic + movement).
  EXPECT_NE(a.contact_events, b.contact_events);
}

INSTANTIATE_TEST_SUITE_P(Protocols, DeterminismTest,
                         ::testing::Values("Epidemic", "SprayAndWait", "EBR", "EER",
                                           "CR", "MaxProp"));

}  // namespace
}  // namespace dtn::harness
