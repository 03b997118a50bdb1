// Cross-registry conformance matrix: programmatically enumerates EVERY
// registered (map kind x mobility model x protocol x communities source)
// combination — walking geo::map_kind_names(), mobility_model_names(),
// routing::known_protocols() and harness::community_source_names() at
// runtime, so a registry entry added later is covered automatically with
// no test edit — and, per cell, either
//   - the spec is structurally incompatible (e.g. a bus group on an open
//     field): validate_spec AND run must both reject it (check-rejects-
//     what-run-rejects), or
//   - the cell executes a short world and must satisfy the full conformance
//     contract: spec round-trip identity (to_config -> parse -> to_config),
//     deterministic per-seed replay, bit-identical metrics on a reused
//     runner (World::reset capacity retention across foreign scenarios) and
//     across sweep thread counts (1 vs 3 workers over a protocol axis).
// A final section runs heterogeneous cells (two groups, per-group protocol
// overrides) through the same checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "geo/map_registry.hpp"
#include "geo/trace.hpp"
#include "harness/scenario.hpp"
#include "harness/spec_io.hpp"
#include "harness/sweep.hpp"
#include "mobility/registry.hpp"
#include "routing/factory.hpp"

namespace dtn::harness {
namespace {

/// Tiny world sizes keep the full matrix (hundreds of cells) seconds-fast,
/// including under ASan/UBSan: ~40 steps x <= 8 nodes per run.
constexpr double kDuration = 20.0;
constexpr int kNodes = 6;

/// Trace fixture shared by every trace-map cell: kNodes nodes drifting
/// right at distinct heights, close enough to meet the 60 m radio.
std::string trace_fixture_path() {
  static const std::string path = [] {
    geo::Trace trace;
    for (int node = 0; node < kNodes; ++node) {
      for (int t = 0; t <= 2; ++t) {
        trace.samples.push_back(geo::TraceSample{
            t * 10.0, node, {20.0 * t + 5.0 * node, 30.0 * node}});
      }
    }
    const std::string p = ::testing::TempDir() + "/conformance_matrix.trace";
    EXPECT_TRUE(geo::write_trace(p, trace));
    return p;
  }();
  return path;
}

/// The cell spec: one group of `model` nodes on `kind`, running `protocol`
/// with `source` communities. Map parameters are the smallest instance of
/// each kind that still produces contacts.
ScenarioSpec cell_spec(const std::string& kind, const std::string& model,
                       const std::string& protocol, const std::string& source) {
  ScenarioSpec spec;
  spec.name = "cell";
  spec.duration_s = kDuration;
  spec.seed = 7;
  spec.world.step_dt = 0.5;
  spec.world.radio_range = 60.0;
  spec.world.ttl_sweep_interval = 5.0;
  spec.traffic.interval_min = 1.0;
  spec.traffic.interval_max = 3.0;
  spec.traffic.size_bytes = 2048;
  spec.traffic.ttl = 10.0;

  spec.map.kind = kind;
  spec.map.params.downtown.rows = 4;
  spec.map.params.downtown.cols = 4;
  spec.map.params.downtown.block_m = 80.0;
  spec.map.params.downtown.districts = 2;
  spec.map.params.downtown.routes_per_district = 1;
  spec.map.params.width = 250.0;
  spec.map.params.height = 250.0;
  spec.map.params.trace_file = trace_fixture_path();

  GroupSpec group;
  group.name = "g0";
  group.model = model;
  group.count = kNodes;
  group.params.waypoint.speed_min = 2.0;
  group.params.waypoint.speed_max = 8.0;
  group.params.community.speed_min = 2.0;
  group.params.community.speed_max = 8.0;
  spec.groups.push_back(std::move(group));

  spec.protocol.name = protocol;
  spec.protocol.copies = 4;
  spec.communities.source = source;
  spec.communities.count = 2;
  spec.communities.warmup_s = 10.0;
  return spec;
}

std::string cell_label(const ScenarioSpec& spec) {
  return spec.map.kind + "/" + spec.groups[0].model + "/" + spec.protocol.name + "/" +
         spec.communities.source;
}

/// The metric fields two conforming runs must agree on bit for bit.
void expect_identical(const ScenarioResult& a, const ScenarioResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.metrics.created(), b.metrics.created()) << label;
  EXPECT_EQ(a.metrics.delivered(), b.metrics.delivered()) << label;
  EXPECT_EQ(a.metrics.relayed(), b.metrics.relayed()) << label;
  EXPECT_EQ(a.metrics.transfers_started(), b.metrics.transfers_started()) << label;
  EXPECT_EQ(a.metrics.transfers_aborted(), b.metrics.transfers_aborted()) << label;
  EXPECT_EQ(a.metrics.dropped(), b.metrics.dropped()) << label;
  EXPECT_EQ(a.metrics.expired(), b.metrics.expired()) << label;
  EXPECT_EQ(a.metrics.control_bytes(), b.metrics.control_bytes()) << label;
  EXPECT_EQ(a.metrics.latency_mean(), b.metrics.latency_mean()) << label;
  EXPECT_EQ(a.metrics.hop_count_mean(), b.metrics.hop_count_mean()) << label;
  EXPECT_EQ(a.contact_events, b.contact_events) << label;
}

bool spec_is_valid(const ScenarioSpec& spec) {
  try {
    validate_spec(spec);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

/// Shared across ALL valid cells, so each cell also exercises World::reset
/// reuse coming from a FOREIGN scenario (different map, model, protocol).
ScenarioRunner& reused_runner() {
  static ScenarioRunner runner;
  return runner;
}

void check_cell(const ScenarioSpec& spec) {
  const std::string label = cell_label(spec);

  // Spec round-trip identity.
  const std::string config = to_config(spec);
  ScenarioSpec parsed;
  std::vector<SpecDiagnostic> diagnostics;
  ASSERT_TRUE(try_parse_spec(config, parsed, diagnostics))
      << label << ": " << (diagnostics.empty() ? "?" : diagnostics.front().message);
  EXPECT_EQ(to_config(parsed), config) << label;

  // Deterministic per-seed replay on fresh runners.
  const ScenarioResult fresh = ScenarioRunner().run(spec);
  const ScenarioResult replay = ScenarioRunner().run(spec);
  EXPECT_GT(fresh.metrics.created(), 0) << label << ": cell ran no traffic";
  expect_identical(fresh, replay, label + " [replay]");

  // Bit-identical on the runner reused across every previous cell.
  const ScenarioResult reused = reused_runner().run(spec);
  expect_identical(fresh, reused, label + " [reused world]");

  // And through the parsed copy (round-trip must preserve execution, not
  // just text).
  const ScenarioResult from_parsed = reused_runner().run(parsed);
  expect_identical(fresh, from_parsed, label + " [parsed spec]");
}

TEST(ConformanceMatrix, EveryRegistryCombinationConformsOrIsRejectedLoudly) {
  int valid_cells = 0;
  int rejected_cells = 0;
  for (const auto& kind : geo::map_kind_names()) {
    for (const auto& model : mobility::mobility_model_names()) {
      for (const auto& source : community_source_names()) {
        for (const auto& protocol : routing::known_protocols()) {
          const ScenarioSpec spec = cell_spec(kind, model, protocol, source);
          if (!spec_is_valid(spec)) {
            // check-rejects-what-run-rejects: the executor must refuse too.
            EXPECT_THROW(run_scenario(spec), std::invalid_argument)
                << cell_label(spec);
            ++rejected_cells;
            continue;
          }
          check_cell(spec);
          if (HasFatalFailure()) return;
          ++valid_cells;
        }
      }
    }
  }
  // The matrix must have real coverage on both sides (a registry change
  // that silently invalidated everything would otherwise pass vacuously).
  EXPECT_GE(valid_cells, 100) << "matrix lost execution coverage";
  EXPECT_GE(rejected_cells, 1) << "matrix lost rejection coverage";
}

TEST(ConformanceMatrix, SweepAggregatesAreBitIdenticalAcrossThreadCounts) {
  // Per (map kind x model x source): sweep the full protocol registry as an
  // axis with 1 worker vs 3, and compare every aggregate bitwise. Together
  // with the per-cell checks above this pins every matrix cell's metrics
  // across thread counts without re-running each protocol separately.
  for (const auto& kind : geo::map_kind_names()) {
    for (const auto& model : mobility::mobility_model_names()) {
      for (const auto& source : community_source_names()) {
        ScenarioSpec base = cell_spec(kind, model, "Epidemic", source);
        if (!spec_is_valid(base)) continue;

        SpecSweepOptions options;
        options.base = base;
        options.axes = {SweepAxis{"protocol.name", routing::known_protocols()}};
        options.seeds = 1;
        options.seed_base = 42;
        options.threads = 1;
        const auto serial = run_spec_sweep(options);
        options.threads = 3;
        const auto parallel = run_spec_sweep(options);

        const std::string label = kind + "/" + model + "/" + source;
        ASSERT_EQ(serial.size(), parallel.size()) << label;
        for (std::size_t p = 0; p < serial.size(); ++p) {
          EXPECT_EQ(serial[p].overrides, parallel[p].overrides) << label;
          for (const auto metric :
               {Metric::kDeliveryRatio, Metric::kLatency, Metric::kGoodput,
                Metric::kControlMb, Metric::kRelayed}) {
            EXPECT_EQ(metric_value(serial[p].result, metric),
                      metric_value(parallel[p].result, metric))
                << label << " " << serial[p].label();
          }
          EXPECT_EQ(serial[p].result.contacts.mean(),
                    parallel[p].result.contacts.mean())
              << label << " " << serial[p].label();
        }
      }
    }
  }
}

TEST(ConformanceMatrix, HeterogeneousPerGroupProtocolCellsConform) {
  // Two-group cells per map kind: the mobile model native to the map plus a
  // stationary relay group running a DIFFERENT protocol — the per-group
  // override path through the same conformance checks.
  const std::map<std::string, std::string> mobile_model{
      {"downtown", "bus"}, {"open_field", "random_waypoint"}, {"trace", "trace"}};
  for (const auto& kind : geo::map_kind_names()) {
    const auto it = mobile_model.find(kind);
    if (it == mobile_model.end()) continue;  // future kinds: no pairing known
    for (const auto& source : community_source_names()) {
      ScenarioSpec spec = cell_spec(kind, it->second, "SprayAndWait", source);
      GroupSpec relays;
      relays.name = "relays";
      relays.model = "stationary";
      relays.count = 3;
      relays.protocol = "Epidemic";  // heterogeneous routing in one world
      relays.params.stationary.margin = 20.0;
      spec.groups.push_back(std::move(relays));
      ASSERT_TRUE(spec_is_valid(spec)) << cell_label(spec);
      check_cell(spec);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(ConformanceMatrix, SweepResultsJsonCarriesTheDocumentedSchema) {
  // The machine-readable `sweep --out` surface: every documented field of
  // the dtnsim-sweep/1 schema must be present, one point per grid cell, and
  // the output must be structurally sound (balanced braces/brackets — we
  // ship no JSON parser, so structure is checked by counting).
  SpecSweepOptions options;
  options.base = cell_spec("open_field", "random_waypoint", "Epidemic", "auto");
  options.axes = {SweepAxis{"protocol.name", {"Epidemic", "DirectDelivery"}},
                  SweepAxis{"scenario.nodes", {"4", "6"}}};
  options.seeds = 2;
  options.seed_base = 77;
  options.threads = 1;
  const auto results = run_spec_sweep(options);
  const std::string json = sweep_results_json(options, results);

  for (const std::string field :
       {"\"schema\": \"dtnsim-sweep/1\"", "\"scenario\": \"cell\"", "\"seeds\": 2",
        "\"seed_base\": 77", "\"axes\":", "\"points\":", "\"overrides\":",
        "\"protocol\":", "\"nodes\":", "\"metrics\":", "\"delivery_ratio\":",
        "\"latency_s\":", "\"goodput\":", "\"control_MB\":", "\"relayed\":",
        "\"contacts\":", "\"mean\":", "\"stddev\":", "\"count\": 2"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  // One "overrides" object per grid point, cross product = 2 x 2.
  std::size_t points = 0;
  for (std::size_t at = json.find("\"overrides\""); at != std::string::npos;
       at = json.find("\"overrides\"", at + 1)) {
    ++points;
  }
  EXPECT_EQ(points, 4u);
  for (const auto& [open, close] : {std::pair{'{', '}'}, std::pair{'[', ']'}}) {
    EXPECT_EQ(std::count(json.begin(), json.end(), open),
              std::count(json.begin(), json.end(), close));
  }
}

/// Traffic-trace fixture for the workload-variant cells: a handful of
/// messages inside the cell's [0, duration - ttl] creation window.
std::string traffic_trace_fixture_path() {
  static const std::string path = [] {
    const std::string p = ::testing::TempDir() + "/conformance_traffic.trace";
    std::ofstream out(p);
    out << "# time src dst [size_bytes [ttl]]\n"
        << "1.0 0 1\n"
        << "2.0 1 2\n"
        << "4.5 2 3 4096\n"
        << "6.0 3 4 0 5\n"
        << "9.0 4 5\n";
    return p;
  }();
  return path;
}

TEST(ConformanceMatrix, WorkloadVariantCellsConform) {
  // The traffic subsystem's whole spec surface — matrix entries, temporal
  // profiles, trace replay — through the same conformance contract as the
  // registry cells: round-trip identity, per-seed replay, reused-runner
  // and parsed-copy bit-identity.
  const std::vector<std::pair<std::string, void (*)(ScenarioSpec&)>> variants = {
      {"matrix",
       [](ScenarioSpec& spec) {
         GroupSpec relays;
         relays.name = "relays";
         relays.model = "stationary";
         relays.count = 3;
         relays.params.stationary.margin = 20.0;
         spec.groups.push_back(std::move(relays));
         spec.traffic_matrix = {TrafficEntrySpec{"g0", "relays", 1.0, 2.0, 2048, 2.0},
                                TrafficEntrySpec{"g0", "g0", 2.0, 4.0, 1024, 1.0}};
       }},
      {"onoff",
       [](ScenarioSpec& spec) {
         spec.traffic.profile = sim::TrafficProfile::kOnOff;
         spec.traffic.on_s = 6.0;
         spec.traffic.off_s = 3.0;
         spec.traffic.phase_s = 1.0;
       }},
      {"diurnal",
       [](ScenarioSpec& spec) {
         spec.traffic.profile = sim::TrafficProfile::kDiurnal;
         spec.traffic.interval_min = 0.5;  // keep enough accepted candidates
         spec.traffic.interval_max = 1.0;
         spec.traffic.period_s = 10.0;
         spec.traffic.phase_s = 2.0;
       }},
      {"trace",
       [](ScenarioSpec& spec) {
         spec.traffic.profile = sim::TrafficProfile::kTrace;
         spec.traffic_file = traffic_trace_fixture_path();
       }},
  };
  for (const auto& [name, mutate] : variants) {
    ScenarioSpec spec = cell_spec("open_field", "random_waypoint", "Epidemic", "auto");
    spec.name = "workload_" + name;
    mutate(spec);
    ASSERT_TRUE(spec_is_valid(spec)) << name;
    check_cell(spec);
    if (HasFatalFailure()) return;
  }
}

TEST(ConformanceMatrix, StationaryPlacementsBehaveAsDocumented) {
  // grid placement is seed-independent; uniform placement varies per seed
  // but replays deterministically — checked through full runs so the lane
  // init path (not just the builder) is what's pinned.
  for (const std::string placement : {"grid", "uniform"}) {
    ScenarioSpec spec = cell_spec("open_field", "stationary", "Epidemic", "auto");
    spec.groups[0].params.stationary.placement = placement;
    ScenarioSpec reseeded = spec;
    reseeded.seed = spec.seed + 1;

    const ScenarioResult a1 = ScenarioRunner().run(spec);
    const ScenarioResult a2 = ScenarioRunner().run(spec);
    expect_identical(a1, a2, placement + " [replay]");

    const ScenarioResult b = ScenarioRunner().run(reseeded);
    if (placement == "grid") {
      // Same fixed positions -> same contact structure at any seed (traffic
      // still differs, so only the contact layer is comparable).
      EXPECT_EQ(a1.contact_events, b.contact_events);
    }
  }
  // Uniform placement actually moves with the seed: compare via the
  // movement-level positions of two one-node worlds.
  ScenarioSpec spec = cell_spec("open_field", "stationary", "Epidemic", "auto");
  spec.groups[0].params.stationary.placement = "uniform";
  // A 1x1 grid cell in the center vs a uniform draw can only coincide by
  // measure-zero accident; two different seeds drawing the same uniform
  // position likewise.
  const geo::MapKindInfo* kind = geo::find_map_kind("open_field");
  const geo::BuiltMap map = kind->build(spec.map.params, spec.seed);
  sim::WorldConfig config = spec.world;
  auto build_world_pos = [&](std::uint64_t seed) {
    config.seed = seed;
    sim::World world(config);
    GroupSpec one = spec.groups[0];
    one.count = 1;
    GroupBuildContext ctx{spec, map, {}};
    ctx.make_router = [] {
      routing::ProtocolConfig protocol;
      protocol.name = "Epidemic";
      return routing::create_router(protocol);
    };
    find_group_builder("stationary")->add_nodes(world, ctx, one);
    return world.position_of(0);
  };
  const geo::Vec2 p1 = build_world_pos(1);
  const geo::Vec2 p2 = build_world_pos(2);
  EXPECT_NE(p1, p2) << "uniform placement ignored the seed";
}

}  // namespace
}  // namespace dtn::harness
