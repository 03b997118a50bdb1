// Per-point failure isolation, retry, timeout, and the exception-context
// fix: a failing sweep point must either name itself in the rethrown
// error (fail-fast mode) or be recorded failed-with-reason while the rest
// of the campaign completes (isolate_failures). A timed-out attempt stops
// at its deadline on its worker's own thread, so nothing it holds outlives
// the sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "harness/spec_io.hpp"
#include "harness/sweep.hpp"
#include "routing/factory.hpp"

namespace dtn::harness {
namespace {

ScenarioSpec tiny_spec() {
  return parse_spec(
      "scenario.name = robustness\n"
      "scenario.duration = 600\n"
      "scenario.seed = 7\n"
      "map.kind = open_field\n"
      "map.width = 120\n"
      "map.height = 120\n"
      "group.walkers.model = random_waypoint\n"
      "group.walkers.count = 8\n"
      "group.walkers.speed_min = 1\n"
      "group.walkers.speed_max = 3\n"
      "world.radio_range = 40\n"
      "protocol.name = EER\n"
      "protocol.copies = 4\n"
      "communities.count = 2\n"
      "traffic.interval_min = 20\n"
      "traffic.interval_max = 30\n"
      "traffic.ttl = 300\n");  // full_ttl_window needs ttl < duration
}

SpecSweepOptions two_point_options() {
  SpecSweepOptions opt;
  opt.base = tiny_spec();
  opt.axes = {{"protocol.copies", {"2", "4"}}};
  opt.seeds = 2;
  opt.threads = 1;
  return opt;
}

TEST(SweepRobustness, FailFastErrorNamesThePoint) {
  // The satellite fix: before it, the pool surfaced the bare what() with
  // no clue which of the grid's runs died.
  SweepFaultPlan fault;
  fault.action = SweepFaultPlan::Action::kThrow;
  fault.point = 1;
  fault.fires = 1000;
  SpecSweepOptions opt = two_point_options();
  opt.fault_plan = &fault;
  try {
    run_spec_sweep(opt);
    FAIL() << "expected the injected fault to propagate";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("protocol.copies=4"), std::string::npos) << what;
    EXPECT_NE(what.find("seed="), std::string::npos) << what;
    EXPECT_NE(what.find("injected fault"), std::string::npos) << what;
  }
}

TEST(SweepRobustness, FailFastErrorNamesThePointAcrossThreads) {
  SweepFaultPlan fault;
  fault.action = SweepFaultPlan::Action::kThrow;
  fault.point = 0;
  fault.fires = 1000;
  SpecSweepOptions opt = two_point_options();
  opt.threads = 3;
  opt.fault_plan = &fault;
  try {
    run_spec_sweep(opt);
    FAIL() << "expected the injected fault to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("protocol.copies=2"), std::string::npos)
        << e.what();
  }
}

TEST(SweepRobustness, IsolationRecordsTheFailureAndFinishesTheRest) {
  SweepFaultPlan fault;
  fault.action = SweepFaultPlan::Action::kThrow;
  fault.point = 0;
  fault.fires = 1000;
  SpecSweepOptions opt = two_point_options();
  opt.isolate_failures = true;
  opt.fault_plan = &fault;
  const auto results = run_spec_sweep(opt);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].exec.ok());
  EXPECT_NE(results[0].exec.error.find("injected fault"), std::string::npos);
  EXPECT_EQ(results[0].result.delivery_ratio.count(), 0u)
      << "a failed point must not fold partial samples";
  EXPECT_TRUE(results[1].exec.ok());
  EXPECT_EQ(results[1].result.delivery_ratio.count(), 2u);
  EXPECT_GT(results[1].result.contacts.mean(), 0.0);
}

TEST(SweepRobustness, RetriesRecoverATransientFailure) {
  // fires=1: the first attempt of point 1 throws, the retry succeeds.
  SweepFaultPlan fault;
  fault.action = SweepFaultPlan::Action::kThrow;
  fault.point = 1;
  fault.fires = 1;
  SpecSweepOptions opt = two_point_options();
  opt.retries = 2;
  opt.fault_plan = &fault;

  // No isolation needed: the retry succeeds, so nothing propagates.
  const auto results = run_spec_sweep(opt);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[1].exec.ok());
  // seeds attempts + 1 failed first attempt.
  EXPECT_EQ(results[1].exec.tries, opt.seeds + 1);
  EXPECT_EQ(results[0].exec.tries, opt.seeds);
  EXPECT_EQ(results[1].result.delivery_ratio.count(), 2u);

  // Retried point aggregates match an undisturbed run bit-for-bit (the
  // retry reruns the same spec + seed on the same warm runner).
  SpecSweepOptions clean = two_point_options();
  const auto want = run_spec_sweep(clean);
  EXPECT_EQ(results[1].result.delivery_ratio.mean(),
            want[1].result.delivery_ratio.mean());
  EXPECT_EQ(results[1].result.contacts.mean(), want[1].result.contacts.mean());
}

TEST(SweepRobustness, RetriesExhaustedReportsAttemptCount) {
  SweepFaultPlan fault;
  fault.action = SweepFaultPlan::Action::kThrow;
  fault.point = 0;
  fault.fires = 1000;
  SpecSweepOptions opt = two_point_options();
  opt.retries = 2;
  opt.isolate_failures = true;
  opt.fault_plan = &fault;
  const auto results = run_spec_sweep(opt);
  EXPECT_FALSE(results[0].exec.ok());
  // Every seed burned 1 + retries attempts.
  EXPECT_EQ(results[0].exec.tries, opt.seeds * (1 + opt.retries));
}

TEST(SweepRobustness, TimeoutStopsAHungPoint) {
  // Point 0's attempts stall 1500 ms against a 100 ms budget: each stops at
  // its deadline, the point records a timeout, and point 1 still completes
  // on the same runner.
  SweepFaultPlan fault;
  fault.action = SweepFaultPlan::Action::kHang;
  fault.point = 0;
  fault.hang_ms = 1500;
  fault.fires = 1000;
  SpecSweepOptions opt = two_point_options();
  opt.point_timeout_s = 0.1;
  opt.isolate_failures = true;
  opt.fault_plan = &fault;
  opt.memo = std::make_shared<CampaignMemo>();
  const auto results = run_spec_sweep(opt);
  EXPECT_EQ(opt.memo.use_count(), 1) << "an attempt outlived the sweep";
  EXPECT_FALSE(results[0].exec.ok());
  EXPECT_EQ(results[0].exec.error, "timed out after 0.1 s");
  EXPECT_TRUE(results[1].exec.ok());
  EXPECT_EQ(results[1].result.delivery_ratio.count(), 2u);
}

TEST(SweepRobustness, TimeoutGenerousEnoughChangesNothing) {
  // A timeout that never fires must not perturb the aggregates. 1e9 s is
  // the CLI's largest --point-timeout, so its deadline must not overflow.
  SpecSweepOptions plain = two_point_options();
  const auto want = run_spec_sweep(plain);
  SpecSweepOptions guarded = two_point_options();
  guarded.point_timeout_s = 1e9;
  const auto got = run_spec_sweep(guarded);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i].exec.ok()) << got[i].exec.error;
    EXPECT_EQ(got[i].result.delivery_ratio.mean(),
              want[i].result.delivery_ratio.mean());
    EXPECT_EQ(got[i].result.latency.mean(), want[i].result.latency.mean());
    EXPECT_EQ(got[i].result.contacts.mean(), want[i].result.contacts.mean());
  }
}

TEST(SweepRobustness, IsolatedFailuresAppearInTheJsonSchema) {
  SweepFaultPlan fault;
  fault.action = SweepFaultPlan::Action::kThrow;
  fault.point = 0;
  fault.fires = 1000;
  SpecSweepOptions opt = two_point_options();
  opt.isolate_failures = true;
  opt.fault_plan = &fault;
  const auto results = run_spec_sweep(opt);
  const std::string json = sweep_results_json(opt, results);
  EXPECT_NE(json.find("\"failed_points\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"status\": \"failed\""), std::string::npos) << json;
  EXPECT_NE(json.find("injected fault"), std::string::npos) << json;
  // Volatile execution metadata stays on `"exec`-substring lines — the
  // filterability contract the crash-equivalence tooling relies on.
  EXPECT_NE(json.find("\"execution\""), std::string::npos);
  EXPECT_NE(json.find("\"exec\""), std::string::npos);
}

// ---- timeouts and the campaign memo ----------------------------------------
// A protocol axis shares one contact key per seed, so its runs replay one
// contact pass per seed. An attempt that stops at its deadline must leave
// the key's schedule to the key's other runs, and no attempt may outlive
// run_spec_sweep: the caller's memo is its only holder the moment the sweep
// returns.

SpecSweepOptions protocol_axis_options() {
  SpecSweepOptions opt;
  opt.base = tiny_spec();
  opt.axes = {{"protocol.name", {"EER", "Epidemic", "SprayAndWait"}}};
  opt.seeds = 2;
  opt.threads = 1;
  return opt;
}

void expect_same_points(const std::vector<SpecPointResult>& got,
                        const std::vector<SpecPointResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(want[i].label());
    EXPECT_TRUE(got[i].exec.ok());
    EXPECT_EQ(got[i].result.delivery_ratio.count(), want[i].result.delivery_ratio.count());
    EXPECT_EQ(got[i].result.delivery_ratio.mean(), want[i].result.delivery_ratio.mean());
    EXPECT_EQ(got[i].result.delivery_ratio.stddev(), want[i].result.delivery_ratio.stddev());
    EXPECT_EQ(got[i].result.latency.mean(), want[i].result.latency.mean());
    EXPECT_EQ(got[i].result.goodput.mean(), want[i].result.goodput.mean());
    EXPECT_EQ(got[i].result.control_mb.mean(), want[i].result.control_mb.mean());
    EXPECT_EQ(got[i].result.relayed.mean(), want[i].result.relayed.mean());
    EXPECT_EQ(got[i].result.contacts.mean(), want[i].result.contacts.mean());
  }
}

/// Point 0's first `fires` attempts stall 1500 ms against a 200 ms budget
/// and are retried; the retries and every other run replay their key's
/// pass as usual, on `threads` workers.
void expect_hung_attempts_change_no_result(std::size_t threads, int fires) {
  SpecSweepOptions clean = protocol_axis_options();
  clean.threads = threads;
  const auto want = run_spec_sweep(clean);
  SweepFaultPlan fault;
  fault.action = SweepFaultPlan::Action::kHang;
  fault.point = 0;
  fault.hang_ms = 1500;
  fault.fires = fires;
  SpecSweepOptions opt = clean;
  opt.point_timeout_s = 0.2;
  opt.retries = fires;
  opt.fault_plan = &fault;
  opt.memo = std::make_shared<CampaignMemo>();
  const auto got = run_spec_sweep(opt);
  EXPECT_EQ(opt.memo.use_count(), 1) << "an attempt outlived the sweep";
  expect_same_points(got, want);
  EXPECT_EQ(got[0].exec.tries, opt.seeds + fires);
  const CampaignMemo::Stats stats = opt.memo->stats();
  EXPECT_GT(stats.replayed, 0u);
  EXPECT_EQ(stats.held, 0u);
}

TEST(SweepRobustness, HungAttemptOnAProtocolAxisChangesNoResult) {
  expect_hung_attempts_change_no_result(1, 1);
}

TEST(SweepRobustness, ConcurrentHungAttemptsOnAProtocolAxisChangeNoResult) {
  // Both seeds of point 0 hang on their first attempts, on two of three
  // workers at once, so both stop concurrently.
  expect_hung_attempts_change_no_result(3, 2);
}

/// Sleeps in the first contact callback of the process while armed: a hang
/// inside the run, after its attempt has taken its contact key.
std::atomic<int> g_stalls{0};

class StallingRouter final : public sim::Router {
 public:
  [[nodiscard]] std::string name() const override { return "Stalling"; }
  void on_contact_up(sim::NodeIdx /*peer*/) override {
    if (g_stalls.fetch_sub(1) > 0) std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  }
};

TEST(SweepRobustness, TimedOutReplayLeavesTheScheduleToTheKey) {
  routing::register_protocol("Stalling", [](const routing::ProtocolConfig&) {
    return std::make_unique<StallingRouter>();
  });
  SpecSweepOptions clean = protocol_axis_options();
  clean.seeds = 1;
  clean.axes = {{"protocol.name", {"Epidemic", "SprayAndWait"}}};
  const auto want = run_spec_sweep(clean);

  // One seed, three runs of one contact key. The Stalling run takes the key
  // first and makes its contact pass, whose routers route nothing. It then
  // replays the pass, stalls 1 s in its first contact callback, and stops
  // at the step boundary after it, past its 300 ms deadline. The schedule
  // stays held for the Epidemic and SprayAndWait runs, which replay it.
  g_stalls = 1;
  SpecSweepOptions opt = clean;
  opt.axes = {{"protocol.name", {"Stalling", "Epidemic", "SprayAndWait"}}};
  opt.point_timeout_s = 0.3;
  opt.isolate_failures = true;
  opt.memo = std::make_shared<CampaignMemo>();
  const auto got = run_spec_sweep(opt);
  EXPECT_EQ(opt.memo.use_count(), 1) << "an attempt outlived the sweep";
  ASSERT_EQ(got.size(), 3u);
  EXPECT_FALSE(got[0].exec.ok());
  EXPECT_EQ(got[0].exec.error, "timed out after 0.3 s");
  expect_same_points({got[1], got[2]}, want);

  const CampaignMemo::Stats stats = opt.memo->stats();
  EXPECT_EQ(stats.recorded, 1u) << "one pass for the key, made by the Stalling run";
  EXPECT_EQ(stats.replayed, 3u) << "the stopped run and the two that finished";
  EXPECT_EQ(stats.held, 0u);
}

}  // namespace
}  // namespace dtn::harness
