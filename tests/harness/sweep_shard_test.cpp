// Shard-merge equivalence properties for the multi-process campaign
// fabric: for ANY shard count in {1, 2, 3, 5} — for point shards, for the
// fleet's tiles (seed groups or point residues) at 1, 2, 4 and 5 seeds,
// and for arbitrary (non-modulo) point partitions — running the shards
// separately and folding their journals through merge_sweep_journals
// yields aggregates BIT-IDENTICAL to a single-process campaign, at thread
// counts 1 and 3. Overlapping shards or seed ranges, foreign journals
// (including a header whose seed range leaves the campaign's, refused
// before anything is sized by it), and invalid shard selectors are refused
// loudly. This is the in-process half of the fabric's acceptance gate; the
// real fork/exec + SIGKILL half is the dtnsim_worker_crash ctest
// (cmake/dtnsim_worker_crash.cmake).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "harness/fleet.hpp"
#include "harness/journal.hpp"
#include "harness/spec_io.hpp"
#include "harness/sweep.hpp"

namespace {

/// While set, the largest single allocation is recorded (a replaced global
/// operator new): a merge must size nothing by an untrusted header.
std::atomic<bool> g_watch_allocs{false};
std::atomic<std::size_t> g_largest_alloc{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_watch_allocs.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest_alloc.load(std::memory_order_relaxed);
    while (size > seen && !g_largest_alloc.compare_exchange_weak(seen, size)) {
    }
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
// Kept out of line: inlined beside the operator new above, GCC 12 reports
// its free() as a mismatched deallocation (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dtn::harness {
namespace {

/// Smallest sweepable world that still produces nonzero, copies-dependent
/// metrics (mirrors tests/cli/resume.cfg).
ScenarioSpec tiny_spec() {
  return parse_spec(
      "scenario.name = shard_prop\n"
      "scenario.duration = 1500\n"
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
      "traffic.interval_max = 30\n");
}

SpecSweepOptions base_options(std::size_t threads) {
  SpecSweepOptions opt;
  opt.base = tiny_spec();
  opt.axes = {{"protocol.copies", {"2", "4", "8"}}};
  opt.seeds = 2;
  opt.threads = threads;
  return opt;
}

/// Bitwise equality of every aggregate — the acceptance bar is
/// bit-identical, not approximately-equal, so EXPECT_EQ on doubles is the
/// point, not an oversight.
void expect_bitwise_equal(const std::vector<SpecPointResult>& got,
                          const std::vector<SpecPointResult>& want,
                          const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const PointResult& g = got[i].result;
    const PointResult& w = want[i].result;
    const std::string where = context + " point " + std::to_string(i);
    EXPECT_EQ(g.delivery_ratio.mean(), w.delivery_ratio.mean()) << where;
    EXPECT_EQ(g.delivery_ratio.stddev(), w.delivery_ratio.stddev()) << where;
    EXPECT_EQ(g.delivery_ratio.count(), w.delivery_ratio.count()) << where;
    EXPECT_EQ(g.latency.mean(), w.latency.mean()) << where;
    EXPECT_EQ(g.latency.stddev(), w.latency.stddev()) << where;
    EXPECT_EQ(g.goodput.mean(), w.goodput.mean()) << where;
    EXPECT_EQ(g.control_mb.mean(), w.control_mb.mean()) << where;
    EXPECT_EQ(g.relayed.mean(), w.relayed.mean()) << where;
    EXPECT_EQ(g.contacts.mean(), w.contacts.mean()) << where;
    EXPECT_EQ(g.contacts.stddev(), w.contacts.stddev()) << where;
  }
}

void write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

class SweepShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stem_ = std::string("shard_prop_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    cleanup();
  }
  void TearDown() override { cleanup(); }
  void cleanup() {
    for (const auto& path : made_) std::remove(path.c_str());
    made_.clear();
  }
  std::string journal_path(std::size_t shard) {
    const std::string path = stem_ + "_" + std::to_string(shard) + ".dtnj";
    made_.push_back(path);
    return path;
  }
  std::string stem_;
  std::vector<std::string> made_;
};

TEST_F(SweepShardTest, InvalidShardSelectorThrows) {
  SpecSweepOptions opt = base_options(1);
  opt.shard_count = 0;
  EXPECT_THROW(run_spec_sweep(opt), std::invalid_argument);
  opt.shard_count = 2;
  opt.shard_index = 2;
  EXPECT_THROW(run_spec_sweep(opt), std::invalid_argument);
  opt.shard_index = 5;
  EXPECT_THROW(run_spec_sweep(opt), std::invalid_argument);
}

TEST_F(SweepShardTest, OutOfShardPointsAreSkippedNotRun) {
  SpecSweepOptions opt = base_options(1);
  opt.shard_index = 0;
  opt.shard_count = 2;  // of 3 points, indices 0 and 2 are in-shard
  const auto got = run_spec_sweep(opt);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_TRUE(got[0].exec.ok());
  EXPECT_TRUE(got[1].exec.skipped());
  EXPECT_TRUE(got[2].exec.ok());
  // A skipped point was never executed: no samples, no attempts.
  EXPECT_EQ(got[1].result.delivery_ratio.count(), 0u);
  EXPECT_EQ(got[1].exec.tries, 0);
  // The JSON carries the skipped status and counts it as skipped, not
  // failed.
  const std::string json = sweep_results_json(opt, got);
  EXPECT_NE(json.find("\"skipped_points\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"status\": \"skipped\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"status\": \"failed\""), std::string::npos) << json;
}

TEST_F(SweepShardTest, ModuloShardsMergeBitIdentical) {
  // The fabric's core property: for every shard count (including counts
  // larger than the grid, which leave header-only journals) and at both
  // execution paths, per-shard journaled runs merge into aggregates
  // bit-identical to one single-process campaign.
  const auto want = run_spec_sweep(base_options(1));
  for (const std::size_t shards : {1u, 2u, 3u, 5u}) {
    for (const std::size_t threads : {1u, 3u}) {
      const std::string context =
          "shards=" + std::to_string(shards) + " threads=" + std::to_string(threads);
      std::vector<std::string> paths;
      for (std::size_t s = 0; s < shards; ++s) {
        SpecSweepOptions opt = base_options(threads);
        opt.shard_index = s;
        opt.shard_count = shards;
        opt.journal_path = journal_path(s);
        paths.push_back(opt.journal_path);
        run_spec_sweep(opt);
      }
      SweepMergeStats stats;
      const auto got = merge_sweep_journals(base_options(threads), paths, &stats);
      expect_bitwise_equal(got, want, context);
      EXPECT_EQ(stats.journals_read, shards) << context;
      EXPECT_EQ(stats.points_ok, want.size()) << context;
      EXPECT_EQ(stats.points_failed, 0u) << context;
      EXPECT_EQ(stats.points_missing, 0u) << context;
      for (const auto& point : got) EXPECT_TRUE(point.exec.ok()) << context;
      cleanup();
    }
  }
}

TEST_F(SweepShardTest, FleetTilesMergeBitIdentical) {
  // The fleet's deal (fleet_tiles) at every shape: seed groups when the
  // campaign has at least as many seeds as slots (the copies axis shares
  // one contact key per seed), point residues otherwise. Each point's seed
  // ranges fold across the tiles in seed order.
  for (const int seeds : {1, 2, 4, 5}) {
    SpecSweepOptions campaign = base_options(1);
    campaign.seeds = seeds;
    const auto want = run_spec_sweep(campaign);
    for (const std::size_t slots : {1u, 2u, 3u, 5u}) {
      for (const std::size_t threads : {1u, 3u}) {
        const std::string context = "seeds=" + std::to_string(seeds) +
                                    " slots=" + std::to_string(slots) +
                                    " threads=" + std::to_string(threads);
        campaign.threads = threads;
        std::vector<std::string> paths;
        for (SpecSweepOptions tile : fleet_tiles(campaign, slots)) {
          tile.journal_path = journal_path(paths.size());
          paths.push_back(tile.journal_path);
          run_spec_sweep(tile);
        }
        SweepMergeStats stats;
        const auto got = merge_sweep_journals(campaign, paths, &stats);
        expect_bitwise_equal(got, want, context);
        EXPECT_EQ(stats.journals_read, slots) << context;
        EXPECT_EQ(stats.points_ok, want.size()) << context;
        EXPECT_EQ(stats.points_missing, 0u) << context;
        for (const auto& point : got) {
          EXPECT_TRUE(point.exec.ok()) << context;
          EXPECT_EQ(point.exec.tries, seeds) << context;  // summed over the tiles
        }
        cleanup();
      }
    }
  }
}

TEST_F(SweepShardTest, OverlappingSeedRangesAreRefused) {
  SpecSweepOptions campaign = base_options(1);
  campaign.seeds = 3;
  const auto seeds_from = [&](int seeds, std::uint64_t offset, std::size_t slot) {
    SpecSweepOptions range = campaign;
    range.seeds = seeds;
    range.seed_base = campaign.seed_base + offset;
    range.journal_path = journal_path(slot);
    run_spec_sweep(range);
    return range.journal_path;
  };
  const std::string first_two = seeds_from(2, 0, 0);
  const std::string last_two = seeds_from(2, 1, 1);
  const std::string last_one = seeds_from(1, 2, 2);
  try {
    merge_sweep_journals(campaign, {first_two, last_two});
    ADD_FAILURE() << "seed 1 of every point was merged twice";
  } catch (const SweepJournalError& e) {
    EXPECT_NE(std::string(e.what()).find("overlapping shards"), std::string::npos) << e.what();
  }
  // Ranges that only meet merge, whatever the journal order.
  SweepMergeStats stats;
  const auto got = merge_sweep_journals(campaign, {last_one, first_two}, &stats);
  expect_bitwise_equal(got, run_spec_sweep(campaign), "first two + last one");
  EXPECT_EQ(stats.points_ok, 3u);
}

TEST_F(SweepShardTest, HeaderSeedRangeOutsideTheCampaignIsForeign) {
  // Each header is the campaign's fingerprint over a seed range that does
  // not fit inside the campaign's: starting before it, running past it
  // (claiming 2^30 seeds), or wrapping the 64-bit seed space. Every one is
  // another campaign's journal, refused before anything is sized by it.
  const SpecSweepOptions campaign = base_options(1);
  const std::uint64_t base = campaign.seed_base;
  const struct {
    int seeds;
    std::uint64_t seed_base;
  } claims[] = {{1, base - 1}, {1 << 30, base}, {2, UINT64_MAX}, {3, base}};
  for (const auto& claim : claims) {
    SpecSweepOptions range = campaign;
    range.seeds = claim.seeds;
    range.seed_base = claim.seed_base;
    const std::string path = journal_path(0);
    write_file(path, frame_record(sweep_campaign_fingerprint(range)));
    const std::string context = "seeds=" + std::to_string(claim.seeds) +
                                " seed_base=" + std::to_string(claim.seed_base);
    std::string refusal;
    g_largest_alloc.store(0);
    g_watch_allocs.store(true);
    try {
      merge_sweep_journals(campaign, {path});
    } catch (const SweepJournalError& e) {
      refusal = e.what();
    }
    g_watch_allocs.store(false);
    EXPECT_NE(refusal.find("different campaign"), std::string::npos) << context;
    EXPECT_LT(g_largest_alloc.load(), std::size_t{1} << 20) << context;
    cleanup();
  }
}

TEST_F(SweepShardTest, MissingSeedGroupFailsItsPoints) {
  // The middle tile of {2, 1, 1} never wrote its journal: every point
  // lacks seed 2 and fails, though the other tiles recorded it.
  SpecSweepOptions campaign = base_options(1);
  campaign.seeds = 4;
  const auto tiles = fleet_tiles(campaign, 3);
  std::vector<std::string> paths;
  for (std::size_t s = 0; s < tiles.size(); ++s) {
    SpecSweepOptions tile = tiles[s];
    tile.journal_path = journal_path(s);
    paths.push_back(tile.journal_path);
    if (s != 1) run_spec_sweep(tile);
  }
  SweepMergeStats stats;
  const auto got = merge_sweep_journals(campaign, paths, &stats);
  ASSERT_EQ(got.size(), 3u);
  for (const auto& point : got) {
    EXPECT_TRUE(point.exec.failed());
    EXPECT_EQ(point.exec.error, "no shard journal recorded this point");
    EXPECT_EQ(point.result.delivery_ratio.count(), 0u);
  }
  EXPECT_EQ(stats.journals_read, 2u);
  EXPECT_EQ(stats.points_ok, 0u);
  EXPECT_EQ(stats.points_missing, 3u);
}

TEST_F(SweepShardTest, SeedGroupOriginsNameEverySlotInSeedOrder) {
  SpecSweepOptions campaign = base_options(1);
  const auto tiles = fleet_tiles(campaign, 2);  // one seed each
  std::vector<std::string> paths;
  for (std::size_t s = 0; s < tiles.size(); ++s) {
    SpecSweepOptions tile = tiles[s];
    tile.journal_path = journal_path(s);
    paths.push_back(tile.journal_path);
    run_spec_sweep(tile);
  }
  // Listed last-seed first: the origins still follow the seeds.
  const auto merged =
      merge_sweep_journals(campaign, {paths[1], paths[0]}, nullptr, {"10.0.0.2:7700", ""});
  for (const auto& point : merged) EXPECT_EQ(point.exec.origin, "local,10.0.0.2:7700");
}

TEST_F(SweepShardTest, ArbitraryPartitionsMergeBitIdentical) {
  // merge_sweep_journals does not require the modulo assignment: ANY
  // disjoint partition of the recorded points merges. Sample partitions by
  // splitting a complete single-process journal's records across K files
  // with a deterministic LCG.
  const auto want = run_spec_sweep(base_options(1));

  SpecSweepOptions full = base_options(1);
  full.journal_path = journal_path(99);
  run_spec_sweep(full);
  const JournalReadResult replay = read_journal(full.journal_path);
  ASSERT_FALSE(replay.tail_dropped());
  ASSERT_EQ(replay.records.size(), 4u);  // header + 3 points
  const std::string header_frame = frame_record(replay.records.front());

  std::uint64_t lcg = 42;
  const auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::size_t>(lcg >> 33);
  };
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t buckets = 2 + static_cast<std::size_t>(trial % 2);  // 2 or 3
    std::vector<std::string> bytes(buckets, header_frame);
    for (std::size_t r = 1; r < replay.records.size(); ++r) {
      bytes[next() % buckets] += frame_record(replay.records[r]);
    }
    std::vector<std::string> paths;
    for (std::size_t b = 0; b < buckets; ++b) {
      paths.push_back(journal_path(b));
      write_file(paths.back(), bytes[b]);
    }
    SweepMergeStats stats;
    const auto got = merge_sweep_journals(base_options(1), paths, &stats);
    expect_bitwise_equal(got, want, "trial " + std::to_string(trial));
    EXPECT_EQ(stats.points_ok, want.size());
    EXPECT_EQ(stats.points_missing, 0u);
    cleanup();
  }
}

TEST_F(SweepShardTest, OverlappingShardsAreRefused) {
  // Two journals recording the same point would silently double-count its
  // samples — the merge must throw, never publish.
  SpecSweepOptions a = base_options(1);
  a.shard_index = 0;
  a.shard_count = 2;
  a.journal_path = journal_path(0);
  run_spec_sweep(a);
  SpecSweepOptions b = base_options(1);
  b.shard_index = 0;  // same shard again: overlaps on points 0 and 2
  b.shard_count = 2;
  b.journal_path = journal_path(1);
  run_spec_sweep(b);
  EXPECT_THROW(
      merge_sweep_journals(base_options(1), {a.journal_path, b.journal_path}),
      SweepJournalError);
}

TEST_F(SweepShardTest, ForeignJournalIsRefused) {
  // A journal from a DIFFERENT campaign (axis values changed) among the
  // shard set must abort the merge loudly.
  SpecSweepOptions mine = base_options(1);
  mine.shard_index = 0;
  mine.shard_count = 2;
  mine.journal_path = journal_path(0);
  run_spec_sweep(mine);
  SpecSweepOptions foreign = base_options(1);
  foreign.axes = {{"protocol.copies", {"2", "16"}}};
  foreign.journal_path = journal_path(1);
  run_spec_sweep(foreign);
  EXPECT_THROW(
      merge_sweep_journals(base_options(1), {mine.journal_path, foreign.journal_path}),
      SweepJournalError);
}

TEST_F(SweepShardTest, MissingJournalsDegradeToFailedPoints) {
  // A shard that died before writing anything contributes nothing; its
  // points come back failed-with-reason so the campaign can publish the
  // survivors with exit-1 semantics instead of refusing.
  SpecSweepOptions opt = base_options(1);
  opt.shard_index = 0;
  opt.shard_count = 2;
  opt.journal_path = journal_path(0);
  run_spec_sweep(opt);
  SweepMergeStats stats;
  const auto got = merge_sweep_journals(
      base_options(1), {opt.journal_path, stem_ + "_nonexistent.dtnj"}, &stats);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_TRUE(got[0].exec.ok());
  EXPECT_TRUE(got[1].exec.failed());
  EXPECT_NE(got[1].exec.error.find("no shard journal"), std::string::npos);
  EXPECT_TRUE(got[2].exec.ok());
  EXPECT_EQ(stats.journals_read, 1u);
  EXPECT_EQ(stats.points_ok, 2u);
  EXPECT_EQ(stats.points_missing, 1u);
}

TEST_F(SweepShardTest, ShardedResumeReplaysOnlyItsOwnSlice) {
  // Resuming WITH a shard selector ignores journal records for
  // out-of-shard points: a shard restarted from a journal written by a
  // wider run must not adopt points that now belong to someone else.
  SpecSweepOptions full = base_options(1);
  full.journal_path = journal_path(0);
  run_spec_sweep(full);  // journal now records all 3 points

  SpecSweepOptions resume = base_options(1);
  resume.shard_index = 1;
  resume.shard_count = 2;  // owns only point 1
  resume.journal_path = full.journal_path;
  resume.resume = true;
  const auto got = run_spec_sweep(resume);
  EXPECT_TRUE(got[0].exec.skipped());
  EXPECT_TRUE(got[1].exec.resumed);
  EXPECT_TRUE(got[1].exec.ok());
  EXPECT_TRUE(got[2].exec.skipped());
  EXPECT_EQ(got[0].result.delivery_ratio.count(), 0u);
}

TEST_F(SweepShardTest, InspectJournalReportsCampaignAndDamage) {
  SpecSweepOptions full = base_options(1);
  full.journal_path = journal_path(0);
  run_spec_sweep(full);

  JournalInspection info = inspect_sweep_journal(full.journal_path);
  EXPECT_TRUE(info.intact());
  EXPECT_TRUE(info.campaign);
  EXPECT_EQ(info.records, 4u);
  EXPECT_EQ(info.seeds, 2);
  EXPECT_EQ(info.grid_points, 3u);
  EXPECT_EQ(info.axes, 1u);
  EXPECT_EQ(info.points_recorded, 3u);
  EXPECT_EQ(info.points_ok, 3u);
  EXPECT_EQ(info.points_failed, 0u);
  EXPECT_EQ(info.dropped_bytes, 0u);

  // A torn tail is diagnosed, not fatal — and never counted as a record.
  std::FILE* f = std::fopen(full.journal_path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("%DTNJ1 99 deadbeef\ngarbage", f);
  std::fclose(f);
  info = inspect_sweep_journal(full.journal_path);
  EXPECT_FALSE(info.intact());
  EXPECT_EQ(info.records, 4u);
  EXPECT_GT(info.dropped_bytes, 0u);
  EXPECT_TRUE(info.campaign);

  const JournalInspection gone = inspect_sweep_journal(stem_ + "_missing.dtnj");
  EXPECT_TRUE(gone.missing);
  EXPECT_FALSE(gone.intact());
}

TEST_F(SweepShardTest, InspectJournalInfersTheShardSelector) {
  // Use more seeds so the 3-point grid becomes a 3-point grid regardless;
  // widen the axis to 6 points so strides are visible.
  SpecSweepOptions opt = base_options(1);
  opt.axes = {{"protocol.copies", {"1", "2", "3", "4", "6", "8"}}};

  // A whole-grid journal: consecutive indices share stride 1.
  SpecSweepOptions whole = opt;
  whole.journal_path = journal_path(0);
  run_spec_sweep(whole);
  JournalInspection info = inspect_sweep_journal(whole.journal_path);
  EXPECT_EQ(info.shard_modulus, 1u);
  EXPECT_EQ(info.shard_residue, 0u);

  // Shard 1/3 records indices 1 and 4: gcd of gaps is 3, residue 1.
  SpecSweepOptions shard = opt;
  shard.shard_index = 1;
  shard.shard_count = 3;
  shard.journal_path = journal_path(1);
  run_spec_sweep(shard);
  info = inspect_sweep_journal(shard.journal_path);
  EXPECT_EQ(info.shard_modulus, 3u);
  EXPECT_EQ(info.shard_residue, 1u);

  // A shard with fewer than two recorded points implies no stride at all.
  SpecSweepOptions lone = opt;
  lone.shard_index = 5;
  lone.shard_count = 6;
  lone.journal_path = journal_path(2);
  run_spec_sweep(lone);
  info = inspect_sweep_journal(lone.journal_path);
  EXPECT_EQ(info.points_recorded, 1u);
  EXPECT_EQ(info.shard_modulus, 0u);
}

TEST_F(SweepShardTest, MergeRecordsPerShardOrigins) {
  // The merge annotates each recorded point with the origin of the
  // journal that carried it — "host:port" for a shard a remote daemon
  // shipped back, "" (rendered "local" in the JSON) otherwise. Origins
  // are volatile metadata: they ride the filterable `"exec` lines only.
  SpecSweepOptions opt = base_options(1);
  std::vector<std::string> journals;
  for (std::size_t s = 0; s < 2; ++s) {
    SpecSweepOptions shard = opt;
    shard.shard_index = s;
    shard.shard_count = 2;
    shard.journal_path = journal_path(s);
    run_spec_sweep(shard);
    journals.push_back(shard.journal_path);
  }
  SweepMergeStats stats;
  const std::vector<std::string> origins = {"", "10.0.0.2:7700"};
  const auto merged = merge_sweep_journals(opt, journals, &stats, origins);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].exec.origin, "");            // shard 0: local
  EXPECT_EQ(merged[1].exec.origin, "10.0.0.2:7700");  // shard 1: remote
  EXPECT_EQ(merged[2].exec.origin, "");
  const std::string json = sweep_results_json(opt, merged);
  EXPECT_NE(json.find("\"origin\": \"local\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"origin\": \"10.0.0.2:7700\""), std::string::npos)
      << json;
  // Omitting origins (every in-process caller) leaves every point local.
  const auto plain = merge_sweep_journals(opt, journals, &stats);
  for (const auto& point : plain) EXPECT_EQ(point.exec.origin, "");
}

}  // namespace
}  // namespace dtn::harness
