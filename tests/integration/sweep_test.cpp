// Harness sweep runner: grid execution, aggregation, and table rendering,
// on the paper's protocol × node-count grid over the bus spec.
#include "harness/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "../test_support.hpp"

namespace dtn::harness {
namespace {

const std::vector<std::string> kProtocols = {"DirectDelivery", "Epidemic"};
const std::vector<int> kNodeCounts = {12, 20};

ScenarioSpec tiny_base(const std::string& overrides = "") {
  return test::paper_bus_spec(
      "scenario.duration = 1200\ntraffic.ttl = 600\n"
      "map.rows = 6\nmap.cols = 8\nmap.districts = 2\nmap.routes_per_district = 2\n" +
      overrides);
}

SpecSweepOptions tiny_sweep() {
  SpecSweepOptions opt;
  opt.base = tiny_base();
  opt.axes = {{"protocol.name", kProtocols}, {"scenario.nodes", {}}};
  for (const int n : kNodeCounts) opt.axes[1].values.push_back(std::to_string(n));
  opt.seeds = 2;
  opt.seed_base = 77;
  return opt;
}

/// The per-point aggregates, in grid order (protocol outermost).
std::vector<PointResult> run_points(const SpecSweepOptions& opt) {
  std::vector<PointResult> out;
  for (SpecPointResult& point : run_spec_sweep(opt)) out.push_back(std::move(point.result));
  return out;
}

TEST(Sweep, ProducesOnePointPerProtocolNodeCount) {
  const auto results = run_points(tiny_sweep());
  ASSERT_EQ(results.size(), 4u);
  for (const auto& p : results) {
    EXPECT_EQ(p.delivery_ratio.count(), 2u) << "one sample per seed";
    EXPECT_EQ(p.goodput.count(), 2u);
  }
}

TEST(Sweep, ProgressCallbackFiresPerRun) {
  SpecSweepOptions opt = tiny_sweep();
  std::atomic<int> calls{0};
  opt.progress = [&calls](const std::string&) { calls.fetch_add(1); };
  run_spec_sweep(opt);
  EXPECT_EQ(calls.load(), 2 * 2 * 2);  // protocols * node counts * seeds
}

TEST(Sweep, OrderFollowsInputs) {
  const auto results = run_points(tiny_sweep());
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].protocol, "DirectDelivery");
  EXPECT_EQ(results[0].node_count, 12);
  EXPECT_EQ(results[1].node_count, 20);
  EXPECT_EQ(results[2].protocol, "Epidemic");
}

TEST(Sweep, EpidemicDominatesDirectDeliveryOnDeliveries) {
  const auto results = run_points(tiny_sweep());
  // Aggregate over node counts: epidemic's flooding can't deliver less.
  double direct = 0.0;
  double epidemic = 0.0;
  for (const auto& p : results) {
    (p.protocol == "Epidemic" ? epidemic : direct) += p.delivery_ratio.mean();
  }
  EXPECT_GE(epidemic + 1e-9, direct);
}

TEST(Sweep, MetricAccessorsCoverAllMetrics) {
  const auto results = run_points(tiny_sweep());
  for (const auto metric : {Metric::kDeliveryRatio, Metric::kLatency, Metric::kGoodput,
                            Metric::kControlMb, Metric::kRelayed}) {
    EXPECT_FALSE(metric_name(metric).empty());
    EXPECT_GE(metric_value(results[0], metric), 0.0);
  }
}

TEST(Sweep, ParallelAndSerialAgree) {
  SpecSweepOptions opt = tiny_sweep();
  opt.threads = 1;
  const auto serial = run_points(opt);
  opt.threads = 4;
  const auto parallel = run_points(opt);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].delivery_ratio.mean(),
                     parallel[i].delivery_ratio.mean());
    EXPECT_DOUBLE_EQ(serial[i].goodput.mean(), parallel[i].goodput.mean());
  }
}

/// Requires every aggregate of every point to be EXACTLY equal (same bits,
/// same sample counts) between two sweeps.
void expect_identical_results(const std::vector<PointResult>& a,
                              const std::vector<PointResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].protocol + "/n=" + std::to_string(a[i].node_count));
    EXPECT_EQ(a[i].protocol, b[i].protocol);
    EXPECT_EQ(a[i].node_count, b[i].node_count);
    EXPECT_EQ(a[i].delivery_ratio.count(), b[i].delivery_ratio.count());
    for (const auto metric : {Metric::kDeliveryRatio, Metric::kLatency,
                              Metric::kGoodput, Metric::kControlMb, Metric::kRelayed}) {
      EXPECT_EQ(metric_value(a[i], metric), metric_value(b[i], metric))
          << metric_name(metric);
    }
    EXPECT_EQ(a[i].contacts.mean(), b[i].contacts.mean());
    EXPECT_EQ(a[i].delivery_ratio.stddev(), b[i].delivery_ratio.stddev());
  }
}

TEST(Sweep, AggregatesBitIdenticalAcrossThreadCounts) {
  // The sweep engine folds per-task samples in task order after the loop,
  // so aggregates cannot depend on worker count or completion order.
  SpecSweepOptions opt = tiny_sweep();
  opt.seeds = 3;
  opt.threads = 1;
  const auto one = run_points(opt);
  opt.threads = 4;
  const auto four = run_points(opt);
  opt.threads = 0;  // hardware concurrency
  const auto hw = run_points(opt);
  expect_identical_results(one, four);
  expect_identical_results(one, hw);
}

TEST(Sweep, ScenarioRunnerReuseMatchesFreshWorlds) {
  // One runner executing a protocol/node-count/seed mix back to back must
  // reproduce fresh-world runs bit for bit (World::reset contract at the
  // harness level; the 12-protocol sweep lives in world_reuse_test).
  ScenarioRunner runner;
  for (const auto& protocol : kProtocols) {
    for (const int nodes : kNodeCounts) {
      for (const std::uint64_t seed : {77u, 78u}) {
        const ScenarioSpec spec =
            tiny_base("protocol.name = " + protocol + "\nscenario.nodes = " +
                      std::to_string(nodes) + "\nscenario.seed = " + std::to_string(seed));
        const ScenarioResult fresh = run_scenario(spec);
        const ScenarioResult reused = runner.run(spec);
        SCOPED_TRACE(protocol + "/n=" + std::to_string(nodes) +
                     "/seed=" + std::to_string(seed));
        EXPECT_EQ(fresh.metrics.created(), reused.metrics.created());
        EXPECT_EQ(fresh.metrics.delivered(), reused.metrics.delivered());
        EXPECT_EQ(fresh.metrics.relayed(), reused.metrics.relayed());
        EXPECT_EQ(fresh.metrics.dropped(), reused.metrics.dropped());
        EXPECT_EQ(fresh.metrics.control_bytes(), reused.metrics.control_bytes());
        EXPECT_EQ(fresh.contact_events, reused.contact_events);
        EXPECT_EQ(fresh.metrics.latency_mean(), reused.metrics.latency_mean());
      }
    }
  }
}

}  // namespace
}  // namespace dtn::harness
