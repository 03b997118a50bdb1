// The campaign scheduler's policy (harness/fleet.hpp), driven without fork
// or sockets: scripted fake slots on a virtual clock stand in for worker
// processes and daemons, so retry counts, resume/fault flags, refusals,
// stalls and backoff windows are checked to the tick. The audit cases use
// real shard journals written by run_spec_sweep, and the deal
// (fleet_tiles) is checked by shape and by the contact passes its shards
// make.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/fleet.hpp"
#include "harness/remote.hpp"
#include "harness/scenario.hpp"
#include "harness/spec_io.hpp"
#include "harness/sweep.hpp"

namespace {

using namespace dtn;
using Outcome = harness::AttemptStatus::Outcome;

/// What one attempt of one shard does: after `after_s` seconds it ends
/// with `outcome`. kRunning means it hangs with its progress frozen until
/// `after_s`, then fails, so a scheduler that misses the stall fails the
/// test instead of spinning forever.
struct Step {
  double after_s = 0.1;
  Outcome outcome = Outcome::kDone;
  std::string reason;
};

/// Shared by the scheduler's clock and every fake slot.
struct Script {
  double now = 0.0;
  std::map<std::pair<std::size_t, int>, Step> steps;  ///< (shard, attempt) -> step
  std::map<std::size_t, int> attempts;                ///< per shard so far
  struct Start {
    std::string slot;
    std::size_t shard;
    int attempt;
    bool resume;
    bool fault;
    double at;
    harness::SpecSweepOptions tile;
  };
  std::vector<Start> starts;
  std::vector<std::pair<std::string, double>> stops;  ///< slot, when
  std::vector<std::string> notes;

  std::vector<Start> starts_of(std::size_t shard) const {
    std::vector<Start> out;
    for (const Start& s : starts) {
      if (s.shard == shard) out.push_back(s);
    }
    return out;
  }
  bool noted(const std::string& needle) const {
    for (const std::string& n : notes) {
      if (n.find(needle) != std::string::npos) return true;
    }
    return false;
  }
};

class FakeRunner final : public harness::ShardRunner {
 public:
  FakeRunner(std::string name, Script& script) : name_(std::move(name)), script_(script) {}

  [[nodiscard]] std::string name() const override { return name_; }

  void start(const harness::ShardAttempt& attempt) override {
    const int n = ++script_.attempts[attempt.shard];
    script_.starts.push_back({name_, attempt.shard, n, attempt.tile.resume, attempt.fault,
                              script_.now, attempt.tile});
    const auto it = script_.steps.find({attempt.shard, n});
    step_ = it != script_.steps.end() ? it->second : Step{};
    began_ = script_.now;
  }

  harness::AttemptStatus poll() override {
    const double elapsed = script_.now - began_;
    const bool hung = step_.outcome == Outcome::kRunning;
    if (elapsed < step_.after_s) {
      const std::uint64_t grown = static_cast<std::uint64_t>(elapsed * 1000.0) + 1;
      return {Outcome::kRunning, hung ? 0 : grown, ""};
    }
    if (hung) return {Outcome::kFailed, 0, "hang outlived its script"};
    return {step_.outcome, 0, step_.reason};
  }

  void stop() override { script_.stops.emplace_back(name_, script_.now); }

 private:
  std::string name_;
  Script& script_;
  Step step_;
  double began_ = 0.0;
};

harness::SpecSweepOptions campaign() {
  harness::SpecSweepOptions options;
  options.base = harness::parse_spec(R"(
scenario.name = fleet_fixture
scenario.duration = 400
scenario.seed = 7
map.kind = open_field
map.width = 120
map.height = 120
group.walkers.model = random_waypoint
group.walkers.count = 6
group.walkers.speed_min = 1
group.walkers.speed_max = 3
world.radio_range = 40
protocol.name = EER
protocol.copies = 4
communities.count = 2
traffic.interval_min = 20
traffic.interval_max = 30
traffic.ttl = 120
)");
  harness::SweepAxis axis;
  axis.key = "protocol.copies";
  axis.values = {"2", "4"};
  options.axes.push_back(axis);
  options.seeds = 2;
  options.seed_base = 7;
  options.isolate_failures = true;
  return options;
}

class FleetTest : public ::testing::Test {
 protected:
  /// Runs the scheduler over one fake slot per name, on the virtual clock.
  harness::FleetResult run(const std::vector<std::string>& slot_names,
                           harness::FleetOptions options = {}) {
    std::vector<std::unique_ptr<harness::ShardRunner>> slots;
    for (const std::string& name : slot_names) {
      slots.push_back(std::make_unique<FakeRunner>(name, script_));
    }
    options.shard_dir = dir_;
    options.clock = [this] { return script_.now; };
    options.wait = [this](double s) { script_.now += s; };
    campaign_.note = [this](const std::string& m) { script_.notes.push_back(m); };
    const harness::FleetResult result = harness::run_fleet(campaign_, options, slots);
    EXPECT_EQ(result.journals, journals(slot_names.size()));
    return result;
  }

  std::vector<std::string> journals(std::size_t n) const {
    std::vector<std::string> out;
    for (std::size_t s = 0; s < n; ++s) {
      out.push_back(dir_ + "/shard-" + std::to_string(s) + ".journal");
    }
    return out;
  }

  void SetUp() override {
    dir_ = ::testing::TempDir() + "fleet_test";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  Script script_;
  harness::SpecSweepOptions campaign_ = campaign();
};

TEST_F(FleetTest, CleanCampaignDealsShardIToSlotI) {
  const auto result = run({"local", "h:1", "h:2"});
  EXPECT_FALSE(result.refused);
  ASSERT_EQ(script_.starts.size(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(script_.starts[s].shard, s);
    EXPECT_EQ(script_.starts[s].at, 0.0);
  }
  EXPECT_EQ(result.origins, (std::vector<std::string>{"local", "h:1", "h:2"}));
}

TEST_F(FleetTest, FailedShardIsRetriedUpToTheLimitThenGivenUp) {
  for (int a = 1; a <= 5; ++a) {
    script_.steps[{1, a}] = Step{0.05, Outcome::kFailed, "died on signal 9"};
  }
  harness::FleetOptions options;
  options.worker_retries = 2;
  const auto result = run({"local", "local"}, options);
  EXPECT_EQ(script_.starts_of(1).size(), 3u);  // 1 + worker_retries
  EXPECT_EQ(result.origins[0], "local");
  EXPECT_EQ(result.origins[1], "");
  EXPECT_TRUE(script_.noted("shard 1/2 on local: died on signal 9"));
  EXPECT_TRUE(script_.noted("restarting shard 1/2 on local (attempt 3 of 3)"));
  EXPECT_TRUE(script_.noted("shard 1/2 gave up after 3 attempt(s)"));
}

TEST_F(FleetTest, EveryRetryResumesAndOnlyTheFirstAttemptCarriesTheFault) {
  script_.steps[{0, 1}] = Step{0.05, Outcome::kFailed, "lost"};
  script_.steps[{0, 2}] = Step{0.05, Outcome::kFailed, "lost"};
  const auto result = run({"local"});
  const auto starts = script_.starts_of(0);
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_FALSE(starts[0].resume);
  EXPECT_TRUE(starts[0].fault);
  for (std::size_t a = 1; a < starts.size(); ++a) {
    EXPECT_TRUE(starts[a].resume);
    EXPECT_FALSE(starts[a].fault);
  }
  EXPECT_EQ(result.origins[0], "local");
}

TEST_F(FleetTest, ResumedCampaignResumesItsFirstAttemptToo) {
  campaign_.resume = true;  // journals are missing: partial, so dealt
  run({"local", "h:1"});
  ASSERT_EQ(script_.starts.size(), 2u);
  for (const auto& start : script_.starts) {
    EXPECT_TRUE(start.resume);
    EXPECT_TRUE(start.fault);
  }
}

TEST_F(FleetTest, RefusedShardIsNeverRetried) {
  script_.steps[{0, 1}] = Step{0.05, Outcome::kRefused, "daemon reported: no"};
  const auto result = run({"h:1", "local"});
  EXPECT_EQ(script_.starts_of(0).size(), 1u);
  EXPECT_EQ(result.origins[0], "");
  EXPECT_EQ(result.origins[1], "local");
  EXPECT_TRUE(script_.noted("shard 0/2 on h:1: daemon reported: no; not retrying"));
}

TEST_F(FleetTest, StalledAttemptIsStoppedAndRetried) {
  script_.steps[{0, 1}] = Step{60.0, Outcome::kRunning, ""};
  harness::FleetOptions options;
  options.worker_timeout_s = 2.0;
  const auto result = run({"local"}, options);
  ASSERT_EQ(script_.stops.size(), 1u);
  EXPECT_GT(script_.stops[0].second, 2.0);
  EXPECT_LT(script_.stops[0].second, 2.1);
  const auto starts = script_.starts_of(0);
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_FALSE(starts[1].fault);
  EXPECT_TRUE(starts[1].resume);
  EXPECT_EQ(result.origins[0], "local");
  EXPECT_TRUE(script_.noted("shard 0/1 on local: no journal progress for 2 s"));
}

TEST_F(FleetTest, AttemptThatKeepsProgressingIsNeverStalled) {
  script_.steps[{0, 1}] = Step{10.0, Outcome::kDone, ""};
  harness::FleetOptions options;
  options.worker_timeout_s = 2.0;
  run({"local"}, options);
  EXPECT_TRUE(script_.stops.empty());
  EXPECT_EQ(script_.starts.size(), 1u);
}

TEST_F(FleetTest, FailedSlotSitsOutADoublingBackoffWindow) {
  for (int a = 1; a <= 3; ++a) {
    script_.steps[{0, a}] = Step{0.0, Outcome::kFailed, "refused connect"};
  }
  harness::FleetOptions options;
  options.worker_retries = 3;
  const auto result = run({"h:1"}, options);
  const auto starts = script_.starts_of(0);
  ASSERT_EQ(starts.size(), 4u);
  // Each failure lands on the first poll, one tick after its start; the
  // retry waits out the window, rounded up to the next tick.
  const double windows[] = {0.25, 0.5, 1.0};
  for (std::size_t a = 1; a < starts.size(); ++a) {
    const double gap = starts[a].at - starts[a - 1].at;
    EXPECT_GE(gap, windows[a - 1]) << "retry " << a;
    EXPECT_LE(gap, windows[a - 1] + 0.05) << "retry " << a;
  }
  EXPECT_EQ(result.origins[0], "h:1");
}

TEST_F(FleetTest, FailedShardIsFinishedByAnotherFreeSlotWithItsOrigin) {
  script_.steps[{0, 1}] = Step{0.01, Outcome::kDone, ""};
  script_.steps[{1, 1}] = Step{0.01, Outcome::kFailed, "connection lost"};
  const auto result = run({"local", "h:1"});
  const auto starts = script_.starts_of(1);
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[1].slot, "local");
  EXPECT_LT(starts[1].at, 0.25);  // no wait: the local slot is not backing off
  EXPECT_EQ(result.origins[0], "local");
  EXPECT_EQ(result.origins[1], "local");
}

TEST_F(FleetTest, EachAttemptCarriesItsTileAndJournal) {
  // The fixture's points share a contact key and it has as many seeds as
  // slots: each slot gets one seed over the whole grid.
  run({"local", "h:1"});
  ASSERT_EQ(script_.starts.size(), 2u);
  for (std::size_t s = 0; s < 2; ++s) {
    const harness::SpecSweepOptions& tile = script_.starts[s].tile;
    EXPECT_EQ(tile.seeds, 1);
    EXPECT_EQ(tile.seed_base, campaign_.seed_base + s);
    EXPECT_EQ(tile.shard_index, 0u);
    EXPECT_EQ(tile.shard_count, 1u);
    EXPECT_EQ(tile.journal_path, journals(2)[s]);
  }
}

TEST_F(FleetTest, CompleteShardIsNotDealtOnResume) {
  harness::SpecSweepOptions shard = harness::fleet_tiles(campaign_, 2)[0];
  shard.journal_path = journals(2)[0];
  harness::run_spec_sweep(shard);

  campaign_.resume = true;
  const auto result = run({"local", "h:1"});
  ASSERT_EQ(script_.starts.size(), 1u);
  EXPECT_EQ(script_.starts[0].shard, 1u);
  EXPECT_EQ(result.origins[0], "");
  EXPECT_TRUE(script_.noted("shard 0/2 is already complete"));
}

TEST_F(FleetTest, ForeignJournalRefusesTheResumeBeforeAnyStart) {
  harness::SpecSweepOptions other = campaign_;
  other.seed_base = 4242;  // a different campaign
  other.shard_index = 1;
  other.shard_count = 2;
  other.journal_path = journals(2)[1];
  harness::run_spec_sweep(other);

  campaign_.resume = true;
  const auto result = run({"local", "h:1"});
  EXPECT_TRUE(result.refused);
  EXPECT_TRUE(script_.starts.empty());
  ASSERT_EQ(script_.notes.size(), 1u);
  EXPECT_EQ(script_.notes[0], harness::foreign_journal_refusal(journals(2)[1]));
}

TEST_F(FleetTest, ShardDirOfTheOtherDealRefusesTheResume) {
  // A complete shard journal of the same campaign, written under the
  // point-residue deal: the seed-group tile would read it as another
  // campaign's, so the resume is refused, not dealt around.
  harness::SpecSweepOptions shard = campaign_;
  shard.shard_index = 0;
  shard.shard_count = 2;
  shard.journal_path = journals(2)[0];
  harness::run_spec_sweep(shard);

  campaign_.resume = true;
  const auto result = run({"local", "h:1"});
  EXPECT_TRUE(result.refused);
  EXPECT_TRUE(script_.starts.empty());
  ASSERT_EQ(script_.notes.size(), 1u);
  EXPECT_EQ(script_.notes[0], harness::foreign_journal_refusal(journals(2)[0]));
}

TEST_F(FleetTest, FreshCampaignRemovesStaleShardJournals) {
  const std::string stale = journals(1)[0];
  std::FILE* f = std::fopen(stale.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("stale", f);
  std::fclose(f);
  run({"local"});
  EXPECT_FALSE(std::filesystem::exists(stale));
}

// ---- the deal ----------------------------------------------------------------

/// The fixture with `seeds` seeds from 7 over fleet_campaign's six
/// protocols.
harness::SpecSweepOptions protocol_campaign(int seeds) {
  harness::SpecSweepOptions options = campaign();
  options.axes = {{"protocol.name",
                   {"EER", "CR", "EBR", "MaxProp", "SprayAndWait", "SprayAndFocus"}}};
  options.seeds = seeds;
  return options;
}

void expect_point_residues(const harness::SpecSweepOptions& campaign,
                           const std::vector<harness::SpecSweepOptions>& tiles,
                           std::size_t slots) {
  ASSERT_EQ(tiles.size(), slots);
  for (std::size_t i = 0; i < slots; ++i) {
    EXPECT_EQ(tiles[i].seeds, campaign.seeds) << i;
    EXPECT_EQ(tiles[i].seed_base, campaign.seed_base) << i;
    EXPECT_EQ(tiles[i].shard_index, i);
    EXPECT_EQ(tiles[i].shard_count, slots);
  }
}

TEST(FleetTilesTest, FewerSeedsThanSlotsGivesPointResidues) {
  const auto campaign = protocol_campaign(2);
  expect_point_residues(campaign, harness::fleet_tiles(campaign, 3), 3);
}

TEST(FleetTilesTest, SharedKeysGiveSeedGroupsLargerFirst) {
  const auto campaign = protocol_campaign(4);
  const auto tiles = harness::fleet_tiles(campaign, 3);
  ASSERT_EQ(tiles.size(), 3u);
  const int sizes[] = {2, 1, 1};
  const std::uint64_t bases[] = {7, 9, 10};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(tiles[i].seeds, sizes[i]) << i;
    EXPECT_EQ(tiles[i].seed_base, bases[i]) << i;
    EXPECT_EQ(tiles[i].shard_index, 0u) << i;
    EXPECT_EQ(tiles[i].shard_count, 1u) << i;
    EXPECT_EQ(tiles[i].axes.size(), 1u) << i;
  }
}

TEST(FleetTilesTest, NoSharedKeyGivesPointResidues) {
  // Each walker count moves different nodes: no two points share contacts.
  harness::SpecSweepOptions campaign = protocol_campaign(4);
  campaign.axes = {{"group.walkers.count", {"4", "5", "6"}}};
  expect_point_residues(campaign, harness::fleet_tiles(campaign, 3), 3);
  // The event kernel's empty key is never shared.
  campaign = protocol_campaign(4);
  campaign.base.world.event_kernel = true;
  expect_point_residues(campaign, harness::fleet_tiles(campaign, 3), 3);
}

TEST(FleetTilesTest, SeedBasesPastTheCliRangeGivePointResidues) {
  // Seed groups would start past INT64_MAX, which no worker's --seed-base
  // and no daemon's ASSIGN accepts.
  harness::SpecSweepOptions campaign = protocol_campaign(4);
  campaign.seed_base = static_cast<std::uint64_t>(INT64_MAX) - 2;
  expect_point_residues(campaign, harness::fleet_tiles(campaign, 3), 3);
}

TEST(FleetTilesTest, OneSlotGetsTheWholeCampaign) {
  for (const int seeds : {1, 4}) {
    const auto campaign = protocol_campaign(seeds);
    const auto tiles = harness::fleet_tiles(campaign, 1);
    ASSERT_EQ(tiles.size(), 1u);
    EXPECT_EQ(harness::serialize_sweep_assignment(tiles[0]),
              harness::serialize_sweep_assignment(campaign));
    EXPECT_EQ(harness::sweep_campaign_fingerprint(tiles[0]),
              harness::sweep_campaign_fingerprint(campaign));
  }
}

/// Contact passes the shards make when each runs in its own process: the
/// schedules their memos recorded.
std::size_t contact_passes(const std::vector<harness::SpecSweepOptions>& shards) {
  std::size_t recorded = 0;
  for (harness::SpecSweepOptions shard : shards) {
    shard.threads = 1;
    shard.memo = std::make_shared<harness::CampaignMemo>();
    harness::run_spec_sweep(shard);
    recorded += shard.memo->stats().recorded;
  }
  return recorded;
}

TEST(FleetTilesTest, SeedGroupsRecordEachContactKeyOnce) {
  // Six protocols x four seeds on three slots is fleet_campaign's shape:
  // four contact keys, one per seed.
  const auto campaign = protocol_campaign(4);
  EXPECT_EQ(contact_passes(harness::fleet_tiles(campaign, 3)), 4u);
  // The point-residue deal spreads every key over every shard.
  std::vector<harness::SpecSweepOptions> residues(3, campaign);
  for (std::size_t i = 0; i < 3; ++i) {
    residues[i].shard_index = i;
    residues[i].shard_count = 3;
  }
  EXPECT_EQ(contact_passes(residues), 12u);
}

}  // namespace
