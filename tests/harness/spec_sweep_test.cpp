// Declarative sweep engine: axis cross products over arbitrary spec keys,
// ordering, and label/meta propagation.
#include <gtest/gtest.h>

#include "../test_support.hpp"
#include "harness/spec_io.hpp"
#include "harness/sweep.hpp"

namespace dtn::harness {
namespace {

ScenarioSpec tiny_bus_spec() {
  return test::paper_bus_spec(
      "scenario.duration = 1200\ntraffic.ttl = 600\nscenario.nodes = 12\n"
      "map.rows = 6\nmap.cols = 8\nmap.districts = 2\nmap.routes_per_district = 2\n");
}

TEST(SpecSweep, CrossProductOrderingFirstAxisOutermost) {
  SpecSweepOptions opt;
  opt.base = tiny_bus_spec();
  opt.axes = {{"protocol.name", {"DirectDelivery", "Epidemic"}},
              {"scenario.nodes", {"12", "20"}}};
  opt.seeds = 1;
  opt.seed_base = 77;
  const auto results = run_spec_sweep(opt);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].result.protocol, "DirectDelivery");
  EXPECT_EQ(results[0].result.node_count, 12);
  EXPECT_EQ(results[1].result.protocol, "DirectDelivery");
  EXPECT_EQ(results[1].result.node_count, 20);
  EXPECT_EQ(results[2].result.protocol, "Epidemic");
  EXPECT_EQ(results[2].result.node_count, 12);
  EXPECT_EQ(results[0].overrides.size(), 2u);
  EXPECT_EQ(results[0].label(), "protocol.name=DirectDelivery scenario.nodes=12");
}

TEST(SpecSweep, AnyParameterIsSweepable) {
  // The point of the redesign: sweep a world-layer parameter (buffer size)
  // and a mobility parameter (bus speed) with no harness changes.
  SpecSweepOptions opt;
  opt.base = tiny_bus_spec();
  apply_override(opt.base, "protocol.name", "Epidemic");
  opt.axes = {{"world.buffer_bytes", {"65536", "1048576"}},
              {"group.buses.speed_max", {"5", "13.9"}}};
  opt.seeds = 1;
  const auto results = run_spec_sweep(opt);
  ASSERT_EQ(results.size(), 4u);
  for (const auto& point : results) {
    EXPECT_EQ(point.result.delivery_ratio.count(), 1u) << point.label();
    EXPECT_GT(point.result.contacts.mean(), 0.0) << point.label();
  }
  // Same seed, same world except buffers: the tiny store cannot deliver
  // more than the roomy one under flooding.
  EXPECT_LE(results[0].result.delivery_ratio.mean(),
            results[2].result.delivery_ratio.mean() + 1e-12);
}

TEST(SpecSweep, NoAxesMeansOnePoint) {
  SpecSweepOptions opt;
  opt.base = tiny_bus_spec();
  apply_override(opt.base, "protocol.name", "DirectDelivery");
  opt.seeds = 2;
  const auto results = run_spec_sweep(opt);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].overrides.empty());
  EXPECT_EQ(results[0].result.delivery_ratio.count(), 2u);
  EXPECT_EQ(results[0].label(), "");
}

TEST(SpecSweep, BadAxisKeyThrowsSpecError) {
  SpecSweepOptions opt;
  opt.base = tiny_bus_spec();
  opt.axes = {{"protocol.nmae", {"EER"}}};
  EXPECT_THROW(run_spec_sweep(opt), SpecError);
}

TEST(SpecSweep, DuplicateAxisKeysAreRejected) {
  // The later axis's override would win per point while the earlier
  // axis's values label the rows — misattributed results.
  SpecSweepOptions opt;
  opt.base = tiny_bus_spec();
  opt.axes = {{"protocol.name", {"EER", "CR"}}, {"protocol.name", {"Epidemic"}}};
  EXPECT_THROW(run_spec_sweep(opt), SpecError);
}

TEST(SpecSweep, SeedAxisIsRejectedNotSilentlyIgnored) {
  // Per-task seeds overwrite spec.seed, so a scenario.seed axis could
  // never take effect — it must fail loudly.
  SpecSweepOptions opt;
  opt.base = tiny_bus_spec();
  opt.axes = {{"scenario.seed", {"1", "2"}}};
  EXPECT_THROW(run_spec_sweep(opt), SpecError);
}

TEST(SpecSweep, SweepTableRendersAxesAndMetrics) {
  SpecSweepOptions opt;
  opt.base = tiny_bus_spec();
  opt.axes = {{"protocol.name", {"DirectDelivery", "Epidemic"}}};
  opt.seeds = 1;
  const auto results = run_spec_sweep(opt);
  const std::string rendered = sweep_table(results).to_string();
  EXPECT_NE(rendered.find("protocol.name"), std::string::npos);
  EXPECT_NE(rendered.find("DirectDelivery"), std::string::npos);
  EXPECT_NE(rendered.find("delivery_ratio"), std::string::npos);
  EXPECT_NE(rendered.find("goodput"), std::string::npos);
}

}  // namespace
}  // namespace dtn::harness
