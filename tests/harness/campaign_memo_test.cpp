// The campaign memo: one routing-free contact pass per shared contact key,
// replayed by every run of the key, and detected-communities warm-ups
// computed once per campaign.
//
// The key is the one correctness risk: two specs with one key must fire the
// same link events. So every scenario key is either in the key or on
// kNormalized below, and each normalized key is changed on small worlds of
// every mobility model while the recorded schedule must stay the same.
// Then replay must equal live: every registered protocol on three shipped
// scenarios, through the sweep at 1 and 3 threads and through one runner,
// against a fresh run_scenario per run, with exactly one pass per key.
// Detection reads a pass too, and must find the tables the contact-logger
// warm-up it replaced found.
#include "harness/scenario.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "../test_support.hpp"
#include "core/community_detection.hpp"
#include "harness/spec_io.hpp"
#include "harness/sweep.hpp"
#include "routing/factory.hpp"
#include "util/value_parse.hpp"

namespace dtn::harness {
namespace {

// ---- the key ----------------------------------------------------------------

/// The keys that movement and contact detection never read (see
/// contact_schedule_key). A prefix ends in '.'; "group.*.protocol" stands
/// for every group's override.
const std::vector<std::string> kNormalized = {
    "scenario.name",       "scenario.full_ttl_window", "protocol.",
    "group.*.protocol",    "traffic.",                 "world.buffer_bytes",
    "world.bitrate_bps",   "world.ttl_sweep_interval", "communities.source",
    "communities.warmup",
};

bool normalized(const std::string& key) {
  for (const std::string& entry : kNormalized) {
    if (entry == "group.*.protocol") {
      if (key.rfind("group.", 0) == 0 && key.size() > 9 &&
          key.compare(key.size() - 9, 9, ".protocol") == 0) {
        return true;
      }
    } else if (entry.back() == '.' ? key.rfind(entry, 0) == 0 : key == entry) {
      return true;
    }
  }
  return false;
}

using test::config_map;

bool ends_with(const std::string& s, const std::string& tail) {
  return s.size() >= tail.size() && s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
}

/// A value for `key` that parses and differs from `current` ("" when the
/// key is not serialized).
std::string other_value(const std::string& key, const std::string& current) {
  const auto next_of = [&current](const std::vector<std::string>& names) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == current) return names[(i + 1) % names.size()];
    }
    return names.front();
  };
  if (key == "map.kind") return next_of(geo::map_kind_names());
  if (key == "communities.source") return next_of(community_source_names());
  if (key == "traffic.profile") return next_of(traffic_profile_names());
  if (key == "protocol.name" || ends_with(key, ".protocol")) {
    return next_of(routing::known_protocols());
  }
  if (ends_with(key, ".model")) return next_of(group_model_names());
  if (ends_with(key, ".placement")) return current == "grid" ? "uniform" : "grid";
  if (key == "world.event_kernel" || current == "true" || current == "false") {
    return current == "true" ? "false" : "true";
  }
  std::int64_t integer = 0;
  if (util::parse_value(current, integer)) return util::format_value(integer + 1);
  double real = 0.0;
  if (util::parse_value(current, real)) return util::format_value(real * 2.0 + 1.0);
  return current + "_other";  // names and file paths
}

/// Specs whose keys cover every map kind's and every model's vocabulary,
/// plus a group protocol override, both kinds of traffic profile knobs,
/// matrix entries and a traffic file.
std::vector<ScenarioSpec> vocabulary_specs() {
  return {
      parse_spec("map.kind = downtown\n"
                 "group.buses.model = bus\ngroup.buses.count = 4\n"
                 "group.relays.model = stationary\ngroup.relays.count = 2\n"
                 "group.relays.protocol = Epidemic\n"
                 "group.walkers.model = random_waypoint\ngroup.walkers.count = 3\n"
                 "traffic.profile = onoff\ntraffic.on = 600\ntraffic.off = 300\n"
                 "traffic.buses.relays.interval_min = 20\n"
                 "traffic.walkers.walkers.weight = 2\n"),
      parse_spec("map.kind = open_field\n"
                 "group.campus.model = community\ngroup.campus.count = 5\n"
                 "traffic.profile = diurnal\ntraffic.period = 3600\n"
                 "traffic.file = unused.trace\n"),
      parse_spec("map.kind = trace\nmap.file = fixtures/example.trace\n"
                 "group.replay.model = trace\ngroup.replay.count = 2\n"),
  };
}

TEST(ContactScheduleKey, EveryKeyIsInTheKeyOrNormalized) {
  for (const ScenarioSpec& base : vocabulary_specs()) {
    const std::map<std::string, std::string> serialized = config_map(base);
    const std::string base_key = contact_schedule_key(base);
    for (const std::string& key : spec_key_names(base)) {
      SCOPED_TRACE(key);
      const auto it = serialized.find(key);
      std::string value = other_value(key, it == serialized.end() ? "" : it->second);
      if (key == "scenario.nodes") {  // write-only alias of a lone group's count
        if (base.groups.size() != 1) continue;
        value = std::to_string(base.groups[0].count + 1);
      }
      ScenarioSpec changed = base;
      ASSERT_NO_THROW(apply_override(changed, key, value)) << "value " << value;
      ASSERT_NE(to_config(changed), to_config(base)) << "override had no effect";
      const bool same_key = contact_schedule_key(changed) == base_key;
      if (normalized(key)) {
        EXPECT_TRUE(same_key) << "normalized, yet keyed";
      } else {
        EXPECT_FALSE(same_key) << "neither in the key nor on the normalized list";
      }
    }
  }
}

TEST(ContactScheduleKey, EventKernelSpecsHaveNoKey) {
  ScenarioSpec spec = vocabulary_specs()[1];
  EXPECT_FALSE(contact_schedule_key(spec).empty());
  spec.world.event_kernel = true;
  EXPECT_TRUE(contact_schedule_key(spec).empty());
}

/// The link events `spec` fires: its contact pass, made through a campaign
/// memo the way a sweep makes it.
sim::ContactSchedule recorded_schedule(const ScenarioSpec& spec) {
  auto memo = std::make_shared<CampaignMemo>();
  const std::string key = contact_schedule_key(spec);
  memo->expect(key, 2);
  ScenarioRunner runner(memo);
  runner.run(spec);
  const auto schedule = memo->schedule(key);
  EXPECT_NE(schedule, nullptr) << "the run made no contact pass";
  return schedule != nullptr ? *schedule : sim::ContactSchedule{};
}

// Small worlds, one per mobility model plus a mixed one, 500 s each.
constexpr const char* kRunCommon =
    "scenario.duration = 500\nscenario.seed = 11\n"
    "traffic.ttl = 150\ntraffic.interval_min = 10\ntraffic.interval_max = 20\n";

struct ModelWorld {
  const char* name;
  std::string text;
};

std::vector<ModelWorld> model_worlds() {
  const std::string downtown =
      "map.kind = downtown\nmap.rows = 4\nmap.cols = 5\nmap.block = 100\n"
      "map.districts = 2\nmap.routes_per_district = 2\n";
  const std::string field = "map.kind = open_field\nmap.width = 250\nmap.height = 250\n";
  return {
      {"bus", std::string(kRunCommon) + downtown + "world.radio_range = 25\n" +
                  "group.buses.model = bus\ngroup.buses.count = 12\n"},
      {"community", std::string(kRunCommon) + field + "world.radio_range = 25\n" +
                        "group.walkers.model = community\ngroup.walkers.count = 14\n" +
                        "communities.count = 3\n"},
      {"waypoint", std::string(kRunCommon) + field + "world.radio_range = 30\n" +
                       "group.walkers.model = random_waypoint\ngroup.walkers.count = 12\n" +
                       "group.walkers.speed_max = 4\n"},
      {"stationary", std::string(kRunCommon) + field + "world.radio_range = 90\n" +
                         "group.posts.model = stationary\ngroup.posts.count = 8\n" +
                         "group.posts.placement = uniform\n"},
      {"mixed", std::string(kRunCommon) + downtown + "world.radio_range = 30\n" +
                    "group.buses.model = bus\ngroup.buses.count = 6\n" +
                    "group.walkers.model = random_waypoint\ngroup.walkers.count = 6\n" +
                    "group.relays.model = stationary\ngroup.relays.count = 2\n" +
                    "group.relays.protocol = Epidemic\n" +
                    "traffic.buses.relays.interval_min = 15\n" +
                    "traffic.walkers.buses.size_bytes = 4096\n"},
  };
}

/// A valid value for normalized key `key` that differs from the world's.
std::string valid_other_value(const std::string& key, const ScenarioSpec& spec) {
  if (key == "scenario.name") return "renamed";
  if (key == "scenario.full_ttl_window") return spec.full_ttl_window ? "false" : "true";
  if (key == "protocol.name") return spec.protocol.name == "Epidemic" ? "MaxProp" : "Epidemic";
  if (key == "protocol.copies") return "3";
  if (key == "protocol.alpha") return "0.9";
  if (key == "protocol.window") return "2";
  if (ends_with(key, ".protocol")) return "SprayAndWait";  // group override
  if (key == "traffic.profile") return "diurnal";
  if (key == "traffic.on") return "50";
  if (key == "traffic.off") return "30";
  if (key == "traffic.period") return "400";
  if (key == "traffic.phase") return "25";
  if (key == "traffic.file") return "unused.trace";  // read only by profile = trace
  if (key == "traffic.start") return "30";
  if (key == "traffic.stop") return "250";
  if (key == "traffic.ttl") return "90";
  if (ends_with(key, ".interval_min")) return "4";
  if (ends_with(key, ".interval_max")) return "45";
  if (ends_with(key, ".size_bytes")) return "2048";
  if (ends_with(key, ".weight")) return "0.5";
  if (key == "world.buffer_bytes") return "32768";
  if (key == "world.bitrate_bps") return "250000";
  if (key == "world.ttl_sweep_interval") return "3";
  if (key == "communities.source") return "detected";
  if (key == "communities.warmup") return "60";
  ADD_FAILURE() << "no valid value for normalized key " << key;
  return "";
}

TEST(ContactScheduleKey, NormalizedKeysLeaveEveryModelsScheduleUnchanged) {
  for (const ModelWorld& world : model_worlds()) {
    SCOPED_TRACE(world.name);
    const ScenarioSpec base = parse_spec(world.text);
    const sim::ContactSchedule want = recorded_schedule(base);
    ASSERT_FALSE(want.ups.empty()) << "a world without contacts proves nothing";
    std::vector<std::pair<std::string, std::string>> changes;
    for (const std::string& key : spec_key_names(base)) {
      if (normalized(key)) changes.emplace_back(key, valid_other_value(key, base));
    }
    // The round-robin source and a traffic trace take their own values.
    changes.emplace_back("communities.source", "round_robin");
    for (const auto& [key, value] : changes) {
      SCOPED_TRACE(key + " = " + value);
      ScenarioSpec changed = base;
      apply_override(changed, key, value);
      ASSERT_TRUE(contact_schedule_key(changed) == contact_schedule_key(base));
      EXPECT_EQ(recorded_schedule(changed), want);
    }
    if (base.traffic_matrix.empty()) {
      const std::string path = std::string("campaign_memo_") + world.name + ".traffic";
      std::ofstream(path) << "5 0 1\n60 1 2 4096\n120 2 0 0 80\n";
      ScenarioSpec changed = base;
      apply_override(changed, "traffic.profile", "trace");
      apply_override(changed, "traffic.file", path);
      EXPECT_EQ(recorded_schedule(changed), want) << "traffic trace";
      std::remove(path.c_str());
    }
  }
}

TEST(ContactScheduleKey, CommunityCountTilesTheWalkersAndStaysInTheKey) {
  // communities.count sets the community walkers' home bands
  // (community_add_nodes), so normalizing all of communities.* would let
  // two different contact histories share a schedule.
  const ScenarioSpec three = parse_spec(model_worlds()[1].text);
  ScenarioSpec five = three;
  apply_override(five, "communities.count", "5");
  EXPECT_FALSE(contact_schedule_key(three) == contact_schedule_key(five));
  EXPECT_NE(recorded_schedule(three), recorded_schedule(five));
}

// ---- replay equals live -----------------------------------------------------

#ifndef DTN_EXAMPLES_DIR
#error "DTN_EXAMPLES_DIR must name the examples/ directory"
#endif

/// The three shipped scenario shapes, shrunk: the paper's bus map, buses
/// and pedestrians on one map, and community commuters with hub posts.
std::vector<ScenarioSpec> shipped_scenarios() {
  const std::string dir = DTN_EXAMPLES_DIR;
  return {
      load_spec_with_overrides(dir + "/helsinki_buses.cfg",
                               {"scenario.duration=600", "traffic.ttl=200",
                                "group.buses.count=24", "map.rows=6", "map.cols=8"}),
      load_spec_with_overrides(dir + "/mixed_downtown.cfg",
                               {"scenario.duration=500", "traffic.ttl=150",
                                "group.buses.count=12", "group.walkers.count=12"}),
      load_spec_with_overrides(dir + "/hub_commute.cfg",
                               {"scenario.duration=600", "traffic.ttl=200",
                                "group.commuters.count=14"}),
  };
}

constexpr int kSeeds = 2;
constexpr std::uint64_t kSeedBase = 41;

SpecSweepOptions protocol_sweep(const ScenarioSpec& base) {
  SpecSweepOptions opt;
  opt.base = base;
  opt.axes = {{"protocol.name", routing::known_protocols()}};
  opt.seeds = kSeeds;
  opt.seed_base = kSeedBase;
  return opt;
}

ScenarioSpec task_spec(const SpecSweepOptions& opt, const std::string& protocol, int s) {
  ScenarioSpec spec = opt.base;
  spec.protocol.name = protocol;
  spec.seed = opt.seed_base + static_cast<std::uint64_t>(s);
  return spec;
}

void expect_same_run(const ScenarioResult& a, const ScenarioResult& b) {
  EXPECT_EQ(a.contact_events, b.contact_events);
  EXPECT_EQ(a.metrics.created(), b.metrics.created());
  EXPECT_EQ(a.metrics.delivered(), b.metrics.delivered());
  EXPECT_EQ(a.metrics.relayed(), b.metrics.relayed());
  EXPECT_EQ(a.metrics.transfers_started(), b.metrics.transfers_started());
  EXPECT_EQ(a.metrics.transfers_aborted(), b.metrics.transfers_aborted());
  EXPECT_EQ(a.metrics.dropped(), b.metrics.dropped());
  EXPECT_EQ(a.metrics.expired(), b.metrics.expired());
  EXPECT_EQ(a.metrics.control_bytes(), b.metrics.control_bytes());
  EXPECT_EQ(a.metrics.latency_mean(), b.metrics.latency_mean());
  EXPECT_EQ(a.metrics.goodput(), b.metrics.goodput());
  EXPECT_EQ(a.metrics.hop_count_mean(), b.metrics.hop_count_mean());
}

void expect_same_stat(const util::StatAccumulator& a, const util::StatAccumulator& b,
                      const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;
  EXPECT_EQ(a.stddev(), b.stddev()) << what;
}

TEST(CampaignMemo, ReplayEqualsLiveForEveryProtocolAndThreadCount) {
  for (const ScenarioSpec& base : shipped_scenarios()) {
    SCOPED_TRACE(base.name);
    const SpecSweepOptions opt = protocol_sweep(base);
    const std::vector<std::string>& protocols = opt.axes[0].values;

    // Live: a fresh runner per run, folded in seed order like the sweep.
    std::vector<ScenarioResult> live;
    std::vector<PointResult> want(protocols.size());
    for (std::size_t p = 0; p < protocols.size(); ++p) {
      for (int s = 0; s < kSeeds; ++s) {
        live.push_back(run_scenario(task_spec(opt, protocols[p], s)));
        const ScenarioResult& r = live.back();
        want[p].delivery_ratio.add(r.metrics.delivery_ratio());
        want[p].latency.add(r.metrics.latency_mean());
        want[p].goodput.add(r.metrics.goodput());
        want[p].control_mb.add(static_cast<double>(r.metrics.control_bytes()) / 1e6);
        want[p].relayed.add(static_cast<double>(r.metrics.relayed()));
        want[p].contacts.add(static_cast<double>(r.contact_events));
      }
    }

    // One runner on a campaign memo, run by run: the first run of a seed
    // makes the seed's pass, and every run of the seed replays it.
    {
      auto memo = std::make_shared<CampaignMemo>();
      for (int s = 0; s < kSeeds; ++s) {
        memo->expect(contact_schedule_key(task_spec(opt, protocols[0], s)),
                     static_cast<int>(protocols.size()));
      }
      ScenarioRunner runner(memo);
      for (std::size_t p = 0; p < protocols.size(); ++p) {
        for (int s = 0; s < kSeeds; ++s) {
          SCOPED_TRACE(protocols[p] + " seed " + std::to_string(s));
          expect_same_run(runner.run(task_spec(opt, protocols[p], s)), live[p * kSeeds + s]);
        }
      }
      const CampaignMemo::Stats stats = memo->stats();
      EXPECT_EQ(stats.recorded, static_cast<std::size_t>(kSeeds)) << "one pass per key";
      EXPECT_EQ(stats.replayed, protocols.size() * kSeeds) << "every run replays";
      EXPECT_EQ(memo->stats().held, 0u) << "the last run of a key releases it";
    }

    for (const std::size_t threads : {1u, 3u}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      SpecSweepOptions sweep = opt;
      sweep.threads = threads;
      sweep.memo = std::make_shared<CampaignMemo>();
      const std::vector<SpecPointResult> got = run_spec_sweep(sweep);
      ASSERT_EQ(got.size(), protocols.size());
      for (std::size_t p = 0; p < protocols.size(); ++p) {
        SCOPED_TRACE(protocols[p]);
        const PointResult& r = got[p].result;
        expect_same_stat(r.delivery_ratio, want[p].delivery_ratio, "delivery_ratio");
        expect_same_stat(r.latency, want[p].latency, "latency");
        expect_same_stat(r.goodput, want[p].goodput, "goodput");
        expect_same_stat(r.control_mb, want[p].control_mb, "control_mb");
        expect_same_stat(r.relayed, want[p].relayed, "relayed");
        expect_same_stat(r.contacts, want[p].contacts, "contacts");
      }
      // Exact at any thread count: a run that finds its key's pass in
      // flight waits for it instead of making one of its own.
      const CampaignMemo::Stats stats = sweep.memo->stats();
      EXPECT_EQ(stats.recorded, static_cast<std::size_t>(kSeeds)) << "one pass per key";
      EXPECT_EQ(stats.replayed, protocols.size() * kSeeds) << "every run replays";
      EXPECT_EQ(sweep.memo->stats().held, 0u);
    }
  }
}

TEST(CampaignMemo, KeysWithOneRunRecordNothing) {
  // A node-count axis gives every run its own contact key.
  SpecSweepOptions opt = protocol_sweep(shipped_scenarios()[0]);
  opt.axes = {{"scenario.nodes", {"10", "14"}}};
  opt.memo = std::make_shared<CampaignMemo>();
  run_spec_sweep(opt);
  const CampaignMemo::Stats stats = opt.memo->stats();
  EXPECT_EQ(stats.recorded, 0u);
  EXPECT_EQ(stats.replayed, 0u);
}

TEST(CampaignMemo, RunsContendingForOneKeyMakeOnePass) {
  // One seed, every protocol, three threads: the first three runs start
  // together on one key, so two of them wait for the third's pass.
  SpecSweepOptions opt = protocol_sweep(shipped_scenarios()[0]);
  opt.seeds = 1;
  opt.threads = 3;
  opt.memo = std::make_shared<CampaignMemo>();
  const std::vector<SpecPointResult> got = run_spec_sweep(opt);
  const std::vector<std::string>& protocols = opt.axes[0].values;
  ASSERT_EQ(got.size(), protocols.size());
  for (std::size_t p = 0; p < protocols.size(); ++p) {
    SCOPED_TRACE(protocols[p]);
    const ScenarioResult live = run_scenario(task_spec(opt, protocols[p], 0));
    const PointResult& r = got[p].result;
    EXPECT_EQ(r.delivery_ratio.mean(), live.metrics.delivery_ratio());
    EXPECT_EQ(r.latency.mean(), live.metrics.latency_mean());
    EXPECT_EQ(r.goodput.mean(), live.metrics.goodput());
    EXPECT_EQ(r.control_mb.mean(), static_cast<double>(live.metrics.control_bytes()) / 1e6);
    EXPECT_EQ(r.relayed.mean(), static_cast<double>(live.metrics.relayed()));
    EXPECT_EQ(r.contacts.mean(), static_cast<double>(live.contact_events));
  }
  const CampaignMemo::Stats stats = opt.memo->stats();
  EXPECT_EQ(stats.recorded, 1u) << "one pass for the key";
  EXPECT_EQ(stats.replayed, protocols.size());
  EXPECT_EQ(stats.held, 0u);
}

TEST(CampaignMemo, StoppedPassIsComputedAnew) {
  // A run whose deadline has passed stops inside its key's contact pass and
  // leaves no schedule behind, so the key's next run makes the pass anew
  // and matches a fresh run.
  const ScenarioSpec spec = task_spec(protocol_sweep(shipped_scenarios()[0]), "EER", 0);
  const std::string key = contact_schedule_key(spec);
  auto memo = std::make_shared<CampaignMemo>();
  memo->expect(key, 3);
  ScenarioRunner runner(memo);
  runner.set_deadline(std::chrono::steady_clock::now());
  EXPECT_THROW(runner.run(spec), sim::DeadlineExceeded);
  EXPECT_EQ(memo->stats().recorded, 1u);
  EXPECT_EQ(memo->schedule(key), nullptr) << "the stopped pass left a schedule behind";
  runner.set_deadline(sim::Deadline::max());
  expect_same_run(runner.run(spec), run_scenario(spec));
  const CampaignMemo::Stats stats = memo->stats();
  EXPECT_EQ(stats.recorded, 2u) << "the stopped pass was not made anew";
  EXPECT_EQ(stats.replayed, 1u);
  EXPECT_NE(memo->schedule(key), nullptr) << "the key's third run is still to come";
}

TEST(CampaignMemo, DetectedWarmUpRunsOncePerCampaign) {
  // Three threads, three protocols, two seeds: each seed's warm-up runs
  // once, not once per worker that needs it.
  SpecSweepOptions opt = protocol_sweep(shipped_scenarios()[0]);
  opt.base.communities.source = "detected";
  opt.base.communities.warmup_s = 300.0;
  opt.axes = {{"protocol.name", {"CR", "EER", "Epidemic"}}};
  opt.threads = 3;
  opt.memo = std::make_shared<CampaignMemo>();
  const std::vector<SpecPointResult> got = run_spec_sweep(opt);
  EXPECT_EQ(opt.memo->stats().warmups, static_cast<std::size_t>(kSeeds));
  ASSERT_EQ(got.size(), 3u);
  for (std::size_t p = 0; p < got.size(); ++p) {
    util::StatAccumulator want;
    for (int s = 0; s < kSeeds; ++s) {
      want.add(run_scenario(task_spec(opt, opt.axes[0].values[p], s)).metrics.delivery_ratio());
    }
    expect_same_stat(got[p].result.delivery_ratio, want, opt.axes[0].values[p].c_str());
  }
}

TEST(CampaignMemo, StoppedWarmUpIsComputedAnew) {
  // A run whose deadline has passed stops inside its detected-communities
  // warm-up and leaves no table behind, so the next run of the same input
  // computes the table anew and matches a fresh run.
  ScenarioSpec spec = task_spec(protocol_sweep(shipped_scenarios()[0]), "CR", 0);
  spec.communities.source = "detected";
  spec.communities.warmup_s = 300.0;
  auto memo = std::make_shared<CampaignMemo>();
  ScenarioRunner runner(memo);
  runner.set_deadline(std::chrono::steady_clock::now());
  EXPECT_THROW(runner.run(spec), sim::DeadlineExceeded);
  EXPECT_EQ(memo->stats().warmups, 1u);
  runner.set_deadline(sim::Deadline::max());
  expect_same_run(runner.run(spec), run_scenario(spec));
  EXPECT_EQ(memo->stats().warmups, 2u) << "the stopped warm-up left its table behind";
}

// ---- detection reads a pass -------------------------------------------------

/// The reference: the warm-up detection ran before it read a contact pass.
/// Routing-free routers count each contact once, when it comes up.
class ContactLoggerRouter final : public sim::Router {
 public:
  explicit ContactLoggerRouter(core::ContactCountGraph* graph) : graph_(graph) {}
  [[nodiscard]] std::string name() const override { return "ContactLogger"; }
  void on_contact_up(sim::NodeIdx peer) override {
    if (self() < peer) graph_->record(self(), peer);
  }

 private:
  core::ContactCountGraph* graph_;
};

core::CommunityTable logger_communities(const ScenarioSpec& spec,
                                        const core::DetectionParams& detection,
                                        double warmup_s) {
  const geo::BuiltMap map = geo::find_map_kind(spec.map.kind)->build(spec.map.params, spec.seed);
  core::ContactCountGraph graph(static_cast<core::NodeIdx>(spec.node_count()));
  sim::WorldConfig config = spec.world;
  config.seed = spec.seed;
  sim::World world(config);
  for (const auto& group : spec.groups) {
    GroupBuildContext ctx{spec, map, {}};
    ctx.make_router = [&graph] { return std::make_unique<ContactLoggerRouter>(&graph); };
    find_group_builder(group.model)->add_nodes(world, ctx, group);
  }
  world.run(warmup_s);
  EXPECT_EQ(world.event_kernel_used(), spec.world.event_kernel) << "the reference's engine";
  return core::detect_communities(graph, detection);
}

TEST(DetectedCommunities, PassFindsTheContactLoggersTables) {
  // Several familiarity thresholds, so that equal tables mean nearly equal
  // contact counts, not just equal components at one cut. The pass always
  // steps fixed-dt, while the logger warm-up of an event-kernel spec took
  // the kernel, so the community world also runs with the kernel on.
  bool split = false;  // some table must have more than one community
  std::vector<ModelWorld> worlds;
  for (const ModelWorld& world : model_worlds()) {
    const std::string name = world.name;
    if (name != "bus" && name != "community" && name != "mixed") continue;
    worlds.push_back(world);
    if (name == "community") {
      worlds.push_back({"community, kernel", world.text + "world.event_kernel = true\n"});
    }
  }
  for (const ModelWorld& world : worlds) {
    const std::string name = world.name;
    const ScenarioSpec spec = parse_spec(world.text);
    for (const double warmup_s : {150.0, 500.0}) {
      for (const int threshold : {1, 3, 6}) {
        SCOPED_TRACE(name + ", warm-up " + util::format_value(warmup_s) + " s, threshold " +
                     std::to_string(threshold));
        const core::DetectionParams detection{threshold};
        const core::CommunityTable want = logger_communities(spec, detection, warmup_s);
        const core::CommunityTable got = detect_spec_communities(spec, detection, warmup_s);
        ASSERT_EQ(got.node_count(), want.node_count());
        EXPECT_EQ(got.community_count(), want.community_count());
        for (core::NodeIdx n = 0; n < want.node_count(); ++n) {
          EXPECT_EQ(got.community_of(n), want.community_of(n)) << "node " << n;
        }
        split = split || (want.community_count() > 1 && want.community_count() < want.node_count());
      }
    }
  }
  EXPECT_TRUE(split) << "no table tells a few communities from none";
}

}  // namespace
}  // namespace dtn::harness
