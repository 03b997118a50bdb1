// Per-point failure isolation, retry, timeout, and the exception-context
// fix: a failing sweep point must either name itself in the rethrown
// error (fail-fast mode) or be recorded failed-with-reason while the rest
// of the campaign completes (isolate_failures).
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

TEST(SweepRobustness, TimeoutAbandonsAHungPoint) {
  // Point 0's attempts stall 1500 ms against a 100 ms budget: the watchdog
  // abandons them, the point records a timeout, and point 1 still
  // completes on the worker's replacement runner.
  SweepFaultPlan fault;
  fault.action = SweepFaultPlan::Action::kHang;
  fault.point = 0;
  fault.hang_ms = 1500;
  fault.fires = 1000;
  SpecSweepOptions opt = two_point_options();
  opt.point_timeout_s = 0.1;
  opt.isolate_failures = true;
  opt.fault_plan = &fault;
  const auto results = run_spec_sweep(opt);
  EXPECT_FALSE(results[0].exec.ok());
  EXPECT_NE(results[0].exec.error.find("timed out"), std::string::npos)
      << results[0].exec.error;
  EXPECT_TRUE(results[1].exec.ok());
  EXPECT_EQ(results[1].result.delivery_ratio.count(), 2u);

  // The timed-out attempts' helper threads are detached and still hold
  // their runners; outlive them before the test exits so the sanitizer
  // sweep sees no in-flight allocations.
  std::this_thread::sleep_for(std::chrono::milliseconds(2000));
}

TEST(SweepRobustness, TimeoutGenerousEnoughChangesNothing) {
  // A timeout that never fires must not perturb the aggregates — the
  // watchdog path runs the same spec on the same runner.
  SpecSweepOptions plain = two_point_options();
  const auto want = run_spec_sweep(plain);
  SpecSweepOptions guarded = two_point_options();
  guarded.point_timeout_s = 300.0;
  const auto got = run_spec_sweep(guarded);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
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
// A protocol axis shares one contact key per seed, so its runs record and
// replay contact schedules. An attempt the watchdog abandons may still run
// to the end on its detached thread; it must not publish its recording.

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

/// Waits until no abandoned attempt holds `memo` any more.
void wait_for_abandoned_attempts(const std::shared_ptr<CampaignMemo>& memo) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (memo.use_count() > 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(memo.use_count(), 1) << "an abandoned attempt never finished";
}

TEST(SweepRobustness, HungAttemptOnAProtocolAxisChangesNoResult) {
  // Point 0's first attempt stalls 1500 ms against a 200 ms budget; its
  // retry and every other run record or replay as usual.
  const auto want = run_spec_sweep(protocol_axis_options());
  SweepFaultPlan fault;
  fault.action = SweepFaultPlan::Action::kHang;
  fault.point = 0;
  fault.hang_ms = 1500;
  fault.fires = 1;
  SpecSweepOptions opt = protocol_axis_options();
  opt.point_timeout_s = 0.2;
  opt.retries = 1;
  opt.fault_plan = &fault;
  opt.memo = std::make_shared<CampaignMemo>();
  const auto got = run_spec_sweep(opt);
  expect_same_points(got, want);
  EXPECT_EQ(got[0].exec.tries, opt.seeds + 1);
  wait_for_abandoned_attempts(opt.memo);
  const CampaignMemo::Stats stats = opt.memo->stats();
  EXPECT_GT(stats.replayed, 0u);
  EXPECT_LE(stats.offered, stats.recorded);
  EXPECT_EQ(opt.memo->stats().held, 0u);
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

// Registered before main: the registry takes no new entry while detached
// attempts of earlier tests may still read it.
const bool kStallingRegistered = [] {
  routing::register_protocol("Stalling", [](const routing::ProtocolConfig&) {
    return std::make_unique<StallingRouter>();
  });
  return true;
}();

TEST(SweepRobustness, AbandonedAttemptPublishesNothing) {
  ASSERT_TRUE(kStallingRegistered);
  SpecSweepOptions clean = protocol_axis_options();
  clean.seeds = 1;
  clean.axes = {{"protocol.name", {"Epidemic", "SprayAndWait"}}};
  const auto want = run_spec_sweep(clean);

  // One seed, three runs of one contact key. The Stalling run takes the key
  // first and records, stalls, and is abandoned at 300 ms; the Epidemic run
  // then records and publishes, and the SprayAndWait run replays. The
  // abandoned run finishes its recording later, and must not offer it.
  g_stalls = 1;
  SpecSweepOptions opt = clean;
  opt.axes = {{"protocol.name", {"Stalling", "Epidemic", "SprayAndWait"}}};
  opt.point_timeout_s = 0.3;
  opt.isolate_failures = true;
  opt.memo = std::make_shared<CampaignMemo>();
  const auto got = run_spec_sweep(opt);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_FALSE(got[0].exec.ok());
  EXPECT_NE(got[0].exec.error.find("timed out"), std::string::npos) << got[0].exec.error;
  expect_same_points({got[1], got[2]}, want);

  wait_for_abandoned_attempts(opt.memo);
  const CampaignMemo::Stats stats = opt.memo->stats();
  EXPECT_EQ(stats.recorded, 2u) << "the stalled run and the Epidemic run";
  EXPECT_EQ(stats.offered, 1u) << "only the accepted recording is offered";
  EXPECT_EQ(stats.replayed, 1u);
  EXPECT_EQ(opt.memo->stats().held, 0u);
}

}  // namespace
}  // namespace dtn::harness
