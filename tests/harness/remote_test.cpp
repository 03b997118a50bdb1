// The campaign-fabric vocabulary (harness/remote.hpp): HELLO/ASSIGN/
// PROGRESS payload round-trips, the campaign-fingerprint digest the
// foreign-refusal rests on, the tile label a daemon logs, and the
// driver-side shard-journal audit that decides what a fleet --resume may
// skip.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "harness/fleet.hpp"
#include "harness/remote.hpp"
#include "harness/spec_io.hpp"
#include "harness/sweep.hpp"
#include "util/checksum.hpp"

namespace {

using namespace dtn;

harness::SpecSweepOptions fixture_options() {
  harness::SpecSweepOptions options;
  options.base = harness::parse_spec(R"(
scenario.name = remote_fixture
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

TEST(RemoteHello, RoundTripsTheFingerprintDigest) {
  const std::string fingerprint =
      harness::sweep_campaign_fingerprint(fixture_options());
  ASSERT_FALSE(fingerprint.empty());
  const std::string payload = harness::serialize_sweep_hello(fingerprint);
  std::uint64_t len = 0;
  std::uint32_t crc = 0;
  std::string error;
  ASSERT_TRUE(harness::parse_sweep_hello(payload, &len, &crc, &error)) << error;
  EXPECT_EQ(len, fingerprint.size());
  EXPECT_EQ(crc, util::crc32(fingerprint));
}

TEST(RemoteHello, RejectsForeignVersionAndGarbage) {
  std::uint64_t len = 0;
  std::uint32_t crc = 0;
  std::string error;
  EXPECT_FALSE(harness::parse_sweep_hello("", &len, &crc, &error));
  EXPECT_FALSE(harness::parse_sweep_hello(
      "hello dtnsim-serve/999\nfingerprint 10 00000000\n", &len, &crc, &error));
  EXPECT_FALSE(harness::parse_sweep_hello(
      std::string("hello ") + harness::kServeProtocolVersion +
          "\nfingerprint ten 00000000\n",
      &len, &crc, &error));
}

TEST(RemoteAssignment, RoundTripsEveryShippedField) {
  harness::SpecSweepOptions options = fixture_options();
  options.shard_index = 3;
  options.shard_count = 5;
  options.resume = true;
  options.retries = 2;
  options.sync_every = 4;
  options.point_timeout_s = 1.5;
  options.seed_base = 12345;

  const std::string payload = harness::serialize_sweep_assignment(options);
  harness::SpecSweepOptions parsed;
  std::string error;
  ASSERT_TRUE(harness::parse_sweep_assignment(payload, &parsed, &error)) << error;

  EXPECT_EQ(parsed.seeds, options.seeds);
  EXPECT_EQ(parsed.seed_base, options.seed_base);
  EXPECT_EQ(parsed.shard_index, options.shard_index);
  EXPECT_EQ(parsed.shard_count, options.shard_count);
  EXPECT_EQ(parsed.resume, options.resume);
  EXPECT_EQ(parsed.isolate_failures, options.isolate_failures);
  EXPECT_EQ(parsed.retries, options.retries);
  EXPECT_EQ(parsed.sync_every, options.sync_every);
  EXPECT_EQ(parsed.point_timeout_s, options.point_timeout_s);
  ASSERT_EQ(parsed.axes.size(), options.axes.size());
  EXPECT_EQ(parsed.axes[0].key, options.axes[0].key);
  EXPECT_EQ(parsed.axes[0].values, options.axes[0].values);
  // The determinism anchor: what the daemon parsed must fingerprint
  // identically to what the driver shipped — spec, axes, seeds and all.
  EXPECT_EQ(harness::sweep_campaign_fingerprint(parsed),
            harness::sweep_campaign_fingerprint(options));
}

TEST(RemoteAssignment, AxisValuesSurviveSpacesAndCommas) {
  harness::SpecSweepOptions options = fixture_options();
  harness::SweepAxis tricky;
  tricky.key = "scenario.name";
  tricky.values = {"a value with spaces", "comma,inside", "="};
  options.axes.push_back(tricky);
  const std::string payload = harness::serialize_sweep_assignment(options);
  harness::SpecSweepOptions parsed;
  std::string error;
  ASSERT_TRUE(harness::parse_sweep_assignment(payload, &parsed, &error)) << error;
  ASSERT_EQ(parsed.axes.size(), 2u);
  EXPECT_EQ(parsed.axes[1].values, tricky.values);
}

TEST(RemoteAssignment, RejectsUnknownFieldsAndBadSpecs) {
  const std::string good =
      harness::serialize_sweep_assignment(fixture_options());
  harness::SpecSweepOptions parsed;
  std::string error;

  // Unknown campaign parameter: strict for /1, foreign fields refuse.
  std::string unknown = good;
  const std::size_t param_line_end = unknown.find('\n', unknown.find('\n') + 1);
  unknown.insert(param_line_end, " surprise=1");
  EXPECT_FALSE(harness::parse_sweep_assignment(unknown, &parsed, &error));
  EXPECT_NE(error.find("surprise"), std::string::npos) << error;

  // Version skew.
  std::string skewed = good;
  skewed.replace(0, skewed.find('\n'), "assign dtnsim-serve/999");
  EXPECT_FALSE(harness::parse_sweep_assignment(skewed, &parsed, &error));

  // A spec body that does not parse must be refused, not half-applied.
  std::string bad_spec = good.substr(0, good.find("spec\n") + 5);
  bad_spec += "scenario.nodes = not_a_number\n";
  EXPECT_FALSE(harness::parse_sweep_assignment(bad_spec, &parsed, &error));
}

TEST(RemoteAssignment, RejectsPolicyValuesTheCliRefuses) {
  // The daemon parses ASSIGN off the network: each value below parsed at
  // the parent, and was then narrowed (4294967297 retries ran as 1), or
  // lay outside what `dtnsim sweep` accepts (a 2^1000 s point timeout, 0
  // seeds, a seed base past INT64_MAX).
  const std::string good = harness::serialize_sweep_assignment(fixture_options());
  const std::size_t line_start = good.find('\n') + 1;
  const std::string params = good.substr(line_start, good.find('\n', line_start) - line_start);
  const std::vector<std::pair<std::string, std::string>> rejected = {
      {"point_timeout", "inf"},       {"point_timeout", "nan"},
      {"point_timeout", "-0x1p+0"},   {"point_timeout", "0x1p+1000"},
      {"point_timeout", "1000000001"}, {"retries", "4294967297"},
      {"retries", "2147483648"},      {"retries", "1001"},
      {"retries", "-1"},              {"sync_every", "2147483648"},
      {"sync_every", "-1"},           {"seeds", "4294967298"},
      {"seeds", "0"},                 {"seed_base", "9223372036854775808"},
  };
  for (const auto& [field, value] : rejected) {
    const std::size_t at = params.find(field + "=");
    ASSERT_NE(at, std::string::npos) << field;
    const std::size_t end = params.find(' ', at);
    std::string bad_params = params;
    bad_params.replace(at, (end == std::string::npos ? params.size() : end) - at,
                       field + "=" + value);
    std::string payload = good;
    payload.replace(line_start, params.size(), bad_params);
    harness::SpecSweepOptions parsed;
    std::string error;
    EXPECT_FALSE(harness::parse_sweep_assignment(payload, &parsed, &error))
        << field << "=" << value;
    EXPECT_NE(error.find(field + "=" + value), std::string::npos) << error;
  }
  // The bounds themselves are accepted, as the CLI accepts them.
  harness::SpecSweepOptions edge = fixture_options();
  edge.retries = 1000;
  edge.sync_every = INT32_MAX;
  edge.point_timeout_s = 1e9;
  edge.seeds = 1;
  edge.seed_base = INT64_MAX;
  harness::SpecSweepOptions parsed;
  std::string error;
  ASSERT_TRUE(harness::parse_sweep_assignment(harness::serialize_sweep_assignment(edge),
                                              &parsed, &error))
      << error;
  EXPECT_EQ(parsed.retries, 1000);
  EXPECT_EQ(parsed.sync_every, INT32_MAX);
  EXPECT_EQ(parsed.point_timeout_s, 1e9);
  EXPECT_EQ(parsed.seeds, 1);
  EXPECT_EQ(parsed.seed_base, static_cast<std::uint64_t>(INT64_MAX));
}

TEST(RemoteProgress, RoundTrips) {
  const std::string payload = harness::serialize_sweep_progress(17, 40960);
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  ASSERT_TRUE(harness::parse_sweep_progress(payload, &records, &bytes));
  EXPECT_EQ(records, 17u);
  EXPECT_EQ(bytes, 40960u);
  EXPECT_FALSE(harness::parse_sweep_progress("progress 17", &records, &bytes));
  EXPECT_FALSE(harness::parse_sweep_progress("progres 1 2", &records, &bytes));
}

TEST(RemoteTileLabel, NamesTheTilesSeedsAndShard) {
  // Four seeds on three slots: seed groups {2, 1, 1}, each over the whole
  // grid, so only the seeds tell the tiles apart.
  harness::SpecSweepOptions campaign = fixture_options();
  campaign.seeds = 4;
  const auto groups = harness::fleet_tiles(campaign, 3);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(harness::tile_label(groups[0]), "seeds 7-8, shard 0/1");
  EXPECT_EQ(harness::tile_label(groups[1]), "seeds 9-9, shard 0/1");
  EXPECT_EQ(harness::tile_label(groups[2]), "seeds 10-10, shard 0/1");
  // Two seeds on three slots: point residues over every seed.
  campaign.seeds = 2;
  const auto residues = harness::fleet_tiles(campaign, 3);
  ASSERT_EQ(residues.size(), 3u);
  EXPECT_EQ(harness::tile_label(residues[2]), "seeds 7-8, shard 2/3");
}

TEST(RemoteFingerprint, ExcludesShardSelectorAndThreads) {
  harness::SpecSweepOptions a = fixture_options();
  harness::SpecSweepOptions b = fixture_options();
  b.shard_index = 1;
  b.shard_count = 4;
  b.threads = 8;
  // The selector says WHO computes which points, never WHAT a point is:
  // every shard of one campaign shares one fingerprint.
  EXPECT_EQ(harness::sweep_campaign_fingerprint(a),
            harness::sweep_campaign_fingerprint(b));
  b.seed_base = 999;
  EXPECT_NE(harness::sweep_campaign_fingerprint(a),
            harness::sweep_campaign_fingerprint(b));
}

class ShardAuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    options_ = fixture_options();
    path_ = ::testing::TempDir() + "remote_audit_shard.journal";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// The campaign's point shard i/n.
  harness::SpecSweepOptions shard(std::size_t i, std::size_t n) const {
    harness::SpecSweepOptions out = options_;
    out.shard_index = i;
    out.shard_count = n;
    return out;
  }
  /// The campaign narrowed to `seeds` seeds from `seed_base`.
  harness::SpecSweepOptions seed_group(int seeds, std::uint64_t seed_base) const {
    harness::SpecSweepOptions out = options_;
    out.seeds = seeds;
    out.seed_base = seed_base;
    return out;
  }

  harness::SpecSweepOptions options_;
  std::string path_;
};

TEST_F(ShardAuditTest, MissingJournalIsPartial) {
  EXPECT_EQ(harness::audit_shard_journal(shard(0, 2), path_),
            harness::ShardJournalState::kPartial);
}

TEST_F(ShardAuditTest, CompleteShardIsComplete) {
  harness::SpecSweepOptions written = shard(0, 2);
  written.journal_path = path_;
  harness::run_spec_sweep(written);
  EXPECT_EQ(harness::audit_shard_journal(shard(0, 2), path_),
            harness::ShardJournalState::kComplete);
  // The same journal audited as the OTHER shard has recorded nothing of
  // that shard's points.
  EXPECT_EQ(harness::audit_shard_journal(shard(1, 2), path_),
            harness::ShardJournalState::kPartial);
}

TEST_F(ShardAuditTest, ForeignCampaignIsForeign) {
  harness::SpecSweepOptions other = shard(0, 2);
  other.seed_base = 4242;  // a different campaign entirely
  other.journal_path = path_;
  harness::run_spec_sweep(other);
  EXPECT_EQ(harness::audit_shard_journal(shard(0, 2), path_),
            harness::ShardJournalState::kForeign);
}

TEST_F(ShardAuditTest, SeedGroupIsAuditedAgainstItsOwnSeeds) {
  harness::SpecSweepOptions written = seed_group(1, options_.seed_base);
  written.journal_path = path_;
  harness::run_spec_sweep(written);
  EXPECT_EQ(harness::audit_shard_journal(seed_group(1, options_.seed_base), path_),
            harness::ShardJournalState::kComplete);
  // A resume of another seed group, or of the whole campaign, would refuse
  // this journal: it is another campaign's to them.
  EXPECT_EQ(harness::audit_shard_journal(seed_group(1, options_.seed_base + 1), path_),
            harness::ShardJournalState::kForeign);
  EXPECT_EQ(harness::audit_shard_journal(shard(0, 1), path_),
            harness::ShardJournalState::kForeign);
}

}  // namespace
