// Spec parser diagnostics: line-numbered unknown-key and bad-value
// reporting, multi-error collection, suggestions, and the structural rules
// (group declaration order, scenario.nodes alias, validate_spec).
#include <gtest/gtest.h>

#include "../test_support.hpp"
#include "harness/scenario.hpp"
#include "harness/spec_io.hpp"

namespace dtn::harness {
namespace {

std::vector<SpecDiagnostic> diagnostics_of(const std::string& text) {
  ScenarioSpec spec;
  std::vector<SpecDiagnostic> diagnostics;
  EXPECT_FALSE(try_parse_spec(text, spec, diagnostics));
  return diagnostics;
}

TEST(SpecDiagnostics, UnknownTopLevelKeyHasLineNumberAndSuggestion) {
  const auto diagnostics = diagnostics_of(
      "scenario.duration = 100\n"
      "scenario.sed = 7\n");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].line, 2);
  EXPECT_NE(diagnostics[0].message.find("unknown key 'scenario.sed'"),
            std::string::npos);
  EXPECT_NE(diagnostics[0].message.find("did you mean 'scenario.seed'"),
            std::string::npos);
}

TEST(SpecDiagnostics, BadValueNamesTheKeyAndLine) {
  const auto diagnostics = diagnostics_of("scenario.duration = fast\n");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].line, 1);
  EXPECT_NE(diagnostics[0].message.find("bad value 'fast'"), std::string::npos);
  EXPECT_NE(diagnostics[0].message.find("scenario.duration"), std::string::npos);
}

TEST(SpecDiagnostics, AllProblemsAreCollectedNotJustTheFirst) {
  const auto diagnostics = diagnostics_of(
      "scenario.duration = abc\n"
      "this line has no equals\n"
      "world.radio_rnage = 10\n");
  ASSERT_EQ(diagnostics.size(), 3u);
  EXPECT_EQ(diagnostics[0].line, 1);
  EXPECT_EQ(diagnostics[1].line, 2);
  EXPECT_EQ(diagnostics[2].line, 3);
  EXPECT_NE(diagnostics[1].message.find("expected 'key = value'"), std::string::npos);
  EXPECT_NE(diagnostics[2].message.find("did you mean 'world.radio_range'"),
            std::string::npos);
}

TEST(SpecDiagnostics, ParseSpecThrowsWithJoinedMessage) {
  try {
    parse_spec("protocol.copies = many\nscenario.bogus = 1\n");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.diagnostics().size(), 2u);
    const std::string what = e.what();
    EXPECT_NE(what.find("spec:1:"), std::string::npos);
    EXPECT_NE(what.find("spec:2:"), std::string::npos);
  }
}

TEST(SpecDiagnostics, UnknownMobilityModelListsKnownOnes) {
  const auto diagnostics = diagnostics_of("group.g.model = teleport\n");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_NE(diagnostics[0].message.find("unknown mobility model 'teleport'"),
            std::string::npos);
  EXPECT_NE(diagnostics[0].message.find("random_waypoint"), std::string::npos);
}

TEST(SpecDiagnostics, GroupParamBeforeModelIsRejected) {
  const auto diagnostics = diagnostics_of("group.g.count = 10\n");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_NE(diagnostics[0].message.find("group.g.model"), std::string::npos);
}

TEST(SpecDiagnostics, ModelSpecificKeyOfWrongModelNamesTheVocabulary) {
  const auto diagnostics = diagnostics_of(
      "group.g.model = bus\n"
      "group.g.home_prob = 0.9\n");  // community key on a bus group
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].line, 2);
  EXPECT_NE(diagnostics[0].message.find("mobility model 'bus'"), std::string::npos);
  EXPECT_NE(diagnostics[0].message.find("stop_spacing"), std::string::npos);
}

TEST(SpecDiagnostics, UnknownMapKindAndWrongKindKeys) {
  auto diagnostics = diagnostics_of("map.kind = torus\n");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_NE(diagnostics[0].message.find("unknown map kind 'torus'"), std::string::npos);
  EXPECT_NE(diagnostics[0].message.find("open_field"), std::string::npos);

  diagnostics = diagnostics_of(
      "map.kind = open_field\n"
      "map.rows = 12\n");  // downtown key on an open field
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].line, 2);
  EXPECT_NE(diagnostics[0].message.find("map kind 'open_field'"), std::string::npos);
}

TEST(SpecDiagnostics, NodesAliasRequiresExactlyOneGroup) {
  auto diagnostics = diagnostics_of("scenario.nodes = 40\n");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_NE(diagnostics[0].message.find("exactly one group"), std::string::npos);

  diagnostics = diagnostics_of(
      "group.a.model = bus\n"
      "group.b.model = random_waypoint\n"
      "scenario.nodes = 40\n");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].line, 3);
}

TEST(SpecDiagnostics, CommunitiesSourceIsValidated) {
  const auto diagnostics = diagnostics_of("communities.source = psychic\n");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_NE(diagnostics[0].message.find("auto | round_robin"), std::string::npos);
}

TEST(SpecDiagnostics, StationaryPlacementListsItsAllowedValues) {
  const auto diagnostics = diagnostics_of(
      "group.relays.model = stationary\n"
      "group.relays.placement = random\n");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].line, 2);
  EXPECT_EQ(diagnostics[0].message,
            "bad value 'random' for group.relays.placement (grid | uniform)");
}

TEST(SpecDiagnostics, ApplyOverrideThrowsSpecError) {
  ScenarioSpec spec = test::paper_bus_spec();
  EXPECT_THROW(apply_override(spec, "protocol.copeis", "3"), SpecError);
  EXPECT_THROW(apply_override(spec, "protocol.copies", "several"), SpecError);
  EXPECT_THROW(apply_override(spec, "group.nosuch.count", "3"), SpecError);
  EXPECT_NO_THROW(apply_override(spec, "protocol.copies", "3"));
  EXPECT_EQ(spec.protocol.copies, 3);
}

TEST(SpecDiagnostics, SplitAssignmentRejectsMissingEquals) {
  EXPECT_THROW(split_assignment("protocol.copies"), SpecError);
  const auto [key, value] = split_assignment(" protocol.copies = 5 ");
  EXPECT_EQ(key, "protocol.copies");
  EXPECT_EQ(value, "5");
}

TEST(SpecDiagnostics, ValidateSpecCatchesStructuralProblems) {
  ScenarioSpec empty;
  EXPECT_THROW(validate_spec(empty), std::invalid_argument);  // no groups

  ScenarioSpec bad_protocol = test::paper_bus_spec();
  bad_protocol.protocol.name = "NoSuchProtocol";
  EXPECT_THROW(validate_spec(bad_protocol), std::invalid_argument);

  ScenarioSpec duplicate = test::paper_bus_spec();
  duplicate.groups.push_back(duplicate.groups[0]);
  EXPECT_THROW(validate_spec(duplicate), std::invalid_argument);

  // Model/map capability mismatches are caught at validation, so
  // `dtnsim check` rejects exactly what run would reject.
  ScenarioSpec bus_on_field = test::paper_bus_spec();
  apply_override(bus_on_field, "map.kind", "open_field");
  EXPECT_THROW(validate_spec(bus_on_field), std::invalid_argument);

  ScenarioSpec trace_on_downtown;
  apply_override(trace_on_downtown, "group.replay.model", "trace");
  apply_override(trace_on_downtown, "group.replay.count", "4");
  EXPECT_THROW(validate_spec(trace_on_downtown), std::invalid_argument);

  // Group names become config-key segments, so the serialized form must
  // stay parseable: dots, '#', '=', whitespace are rejected.
  for (const std::string bad_name : {"city.buses", "bu ses", "a#b", "a=b", ""}) {
    ScenarioSpec bad = test::paper_bus_spec();
    bad.groups[0].name = bad_name;
    EXPECT_THROW(validate_spec(bad), std::invalid_argument) << bad_name;
  }

  // Model-specific enum-like strings: the parser vets these per key, but a
  // programmatic spec skips the parser — validation must still reject what
  // add_nodes would silently misinterpret (and to_config would emit in a
  // form load_spec refuses, breaking round-trip identity).
  ScenarioSpec bad_placement;
  apply_override(bad_placement, "group.relays.model", "stationary");
  apply_override(bad_placement, "group.relays.count", "4");
  bad_placement.groups[0].params.stationary.placement = "Uniform";
  EXPECT_THROW(validate_spec(bad_placement), std::invalid_argument);

  ScenarioSpec bad_margin;
  apply_override(bad_margin, "group.relays.model", "stationary");
  apply_override(bad_margin, "group.relays.count", "4");
  apply_override(bad_margin, "group.relays.margin", "-150");
  EXPECT_THROW(validate_spec(bad_margin), std::invalid_argument);

  ScenarioSpec ok = test::paper_bus_spec();
  EXPECT_NO_THROW(validate_spec(ok));
}

/// Overrides `key` on a valid spec (the paper's bus spec by default) and
/// requires validate_spec to reject it with exactly `message`.
void expect_rejected(const std::string& key, const std::string& value,
                     const std::string& message,
                     ScenarioSpec spec = test::paper_bus_spec()) {
  apply_override(spec, key, value);
  try {
    validate_spec(spec);
    ADD_FAILURE() << key << " = " << value << " passed validation";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), message) << key << " = " << value;
  }
}

TEST(SpecDiagnostics, StepDtMustBeFiniteAndPositive) {
  expect_rejected("world.step_dt", "0", "world.step_dt must be finite and > 0 (got 0)");
  expect_rejected("world.step_dt", "-0.1",
                  "world.step_dt must be finite and > 0 (got -0.1)");
  expect_rejected("world.step_dt", "nan", "world.step_dt must be finite and > 0 (got nan)");
}

TEST(SpecDiagnostics, RadioRangeMustBeFiniteAndPositive) {
  expect_rejected("world.radio_range", "0",
                  "world.radio_range must be finite and > 0 (got 0)");
  expect_rejected("world.radio_range", "inf",
                  "world.radio_range must be finite and > 0 (got inf)");
}

TEST(SpecDiagnostics, BitrateMustBeFiniteAndPositive) {
  expect_rejected("world.bitrate_bps", "0",
                  "world.bitrate_bps must be finite and > 0 (got 0)");
}

TEST(SpecDiagnostics, BufferBytesMustBePositive) {
  expect_rejected("world.buffer_bytes", "-1", "world.buffer_bytes must be > 0 (got -1)");
  expect_rejected("world.buffer_bytes", "0", "world.buffer_bytes must be > 0 (got 0)");
}

TEST(SpecDiagnostics, TtlSweepIntervalMustBeFiniteAndNonNegative) {
  expect_rejected("world.ttl_sweep_interval", "-1",
                  "world.ttl_sweep_interval must be finite and >= 0 (got -1)");
  expect_rejected("world.ttl_sweep_interval", "nan",
                  "world.ttl_sweep_interval must be finite and >= 0 (got nan)");
  ScenarioSpec every_step = test::paper_bus_spec();
  apply_override(every_step, "world.ttl_sweep_interval", "0");  // sweep every step
  EXPECT_NO_THROW(validate_spec(every_step));
}

TEST(SpecDiagnostics, DurationMustBeFinitePositiveAndFitTheStepCounter) {
  expect_rejected("scenario.duration", "0",
                  "scenario.duration must be finite and > 0 (got 0)");
  expect_rejected("scenario.duration", "inf",
                  "scenario.duration must be finite and > 0 (got inf)");
  expect_rejected("scenario.duration", "1e30",
                  "scenario.duration must be under 2^63 steps of world.step_dt "
                  "(got 1e+30 s at world.step_dt 0.1)");
}

TEST(SpecDiagnostics, CopiesMustBeAtLeastOne) {
  // copies < 1 would leave EER no replicas and run direct delivery instead.
  expect_rejected("protocol.copies", "0", "protocol.copies must be >= 1 (got 0)");
  expect_rejected("protocol.copies", "-3", "protocol.copies must be >= 1 (got -3)");
  ScenarioSpec single = test::paper_bus_spec();
  apply_override(single, "protocol.copies", "1");
  EXPECT_NO_THROW(validate_spec(single));
}

TEST(SpecDiagnostics, AlphaMustBeFiniteAndPositive) {
  // A NaN alpha compares false everywhere, so it would run as alpha = inf.
  expect_rejected("protocol.alpha", "nan", "protocol.alpha must be finite and > 0 (got nan)");
  expect_rejected("protocol.alpha", "inf", "protocol.alpha must be finite and > 0 (got inf)");
  expect_rejected("protocol.alpha", "0", "protocol.alpha must be finite and > 0 (got 0)");
  expect_rejected("protocol.alpha", "-0.28",
                  "protocol.alpha must be finite and > 0 (got -0.28)");
}

TEST(SpecDiagnostics, WindowMustBeAtLeastOne) {
  // The contact history would silently clamp a zero window to one interval.
  expect_rejected("protocol.window", "0", "protocol.window must be >= 1 (got 0)");
  ScenarioSpec single = test::paper_bus_spec();
  apply_override(single, "protocol.window", "1");
  EXPECT_NO_THROW(validate_spec(single));
}

// ---- map, model and communities values --------------------------------------
// Unchecked, each of these would pass `dtnsim check` and then hang the run,
// empty it, fail only at run time, or run a silently different world.

ScenarioSpec waypoint_spec() {
  return parse_spec(
      "map.kind = open_field\n"
      "group.walkers.model = random_waypoint\n"
      "group.walkers.count = 10\n");
}

TEST(SpecDiagnostics, OpenFieldExtentMustBeFiniteAndPositive) {
  // A NaN width would run a world that delivers nothing.
  expect_rejected("map.width", "nan", "map.width must be finite and > 0 (got nan)",
                  test::community_spec());
  expect_rejected("map.height", "0", "map.height must be finite and > 0 (got 0)",
                  test::community_spec());
}

TEST(SpecDiagnostics, DowntownCountsMustBeAtLeastOne) {
  // districts = 0 would run as 1; routes_per_district = 0 would pass check
  // and then fail the run of a bus group for want of routes.
  expect_rejected("map.rows", "0", "map.rows must be >= 1 (got 0)");
  expect_rejected("map.cols", "-2", "map.cols must be >= 1 (got -2)");
  expect_rejected("map.districts", "0", "map.districts must be >= 1 (got 0)");
  expect_rejected("map.routes_per_district", "0",
                  "map.routes_per_district must be >= 1 (got 0)");
}

TEST(SpecDiagnostics, DowntownAnchorsPerRouteMustBeAtLeastTwo) {
  // The generator silently raises smaller values to 2.
  expect_rejected("map.anchors_per_route", "1", "map.anchors_per_route must be >= 2 (got 1)");
  ScenarioSpec two = test::paper_bus_spec();
  apply_override(two, "map.anchors_per_route", "2");
  EXPECT_NO_THROW(validate_spec(two));
}

TEST(SpecDiagnostics, DowntownBlockMustBeFiniteAndPositive) {
  expect_rejected("map.block", "0", "map.block must be finite and > 0 (got 0)");
  expect_rejected("map.block", "inf", "map.block must be finite and > 0 (got inf)");
}

TEST(SpecDiagnostics, DowntownJitterMustBeFiniteAndNonNegative) {
  expect_rejected("map.jitter", "-0.1", "map.jitter must be finite and >= 0 (got -0.1)");
  expect_rejected("map.jitter", "nan", "map.jitter must be finite and >= 0 (got nan)");
}

TEST(SpecDiagnostics, DowntownHubVisitProbMustBeAProbability) {
  expect_rejected("map.hub_visit_prob", "1.5", "map.hub_visit_prob must be in [0, 1] (got 1.5)");
  expect_rejected("map.hub_visit_prob", "nan", "map.hub_visit_prob must be in [0, 1] (got nan)");
}

TEST(SpecDiagnostics, TraceMapRequiresAFile) {
  // Otherwise check would pass this and run would fail on it.
  ScenarioSpec spec = parse_spec(
      "map.kind = trace\n"
      "group.replay.model = trace\n"
      "group.replay.count = 2\n");
  try {
    validate_spec(spec);
    ADD_FAILURE() << "a trace map without map.file passed validation";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "map.kind = trace requires map.file");
  }
}

TEST(SpecDiagnostics, BusSpeedMinMustBeFiniteAndPositive) {
  // With speed 0 a bus's travel time would fall back to a jump to the next
  // stop.
  expect_rejected("group.buses.speed_min", "0",
                  "group.buses.speed_min must be finite and > 0 (got 0)");
  expect_rejected("group.buses.speed_min", "nan",
                  "group.buses.speed_min must be finite and > 0 (got nan)");
}

TEST(SpecDiagnostics, BusStopSpacingMustBeFiniteAndPositive) {
  // With zero pauses, a zero spacing would make the bus step spin forever.
  ScenarioSpec no_pause = test::paper_bus_spec(
      "group.buses.pause_min = 0\n"
      "group.buses.pause_max = 0\n");
  expect_rejected("group.buses.stop_spacing", "0",
                  "group.buses.stop_spacing must be finite and > 0 (got 0)", no_pause);
  expect_rejected("group.buses.stop_spacing", "-600",
                  "group.buses.stop_spacing must be finite and > 0 (got -600)");
}

TEST(SpecDiagnostics, WalkerSpeedMinMustBeFiniteAndNonNegative) {
  expect_rejected("group.walkers.speed_min", "-1",
                  "group.walkers.speed_min must be finite and >= 0 (got -1)", waypoint_spec());
  expect_rejected("group.walkers.speed_min", "nan",
                  "group.walkers.speed_min must be finite and >= 0 (got nan)",
                  test::community_spec());
  // Speed 0 is the documented frozen walker.
  for (ScenarioSpec frozen : {waypoint_spec(), test::community_spec()}) {
    apply_override(frozen, "group.walkers.speed_min", "0");
    apply_override(frozen, "group.walkers.speed_max", "0");
    EXPECT_NO_THROW(validate_spec(frozen)) << frozen.groups[0].model;
  }
}

TEST(SpecDiagnostics, SpeedMaxMustNotBeBelowSpeedMin) {
  // A reversed range would run with the range flipped.
  expect_rejected("group.buses.speed_min", "5",
                  "group.buses.speed_min (5) must be <= group.buses.speed_max (1)",
                  test::paper_bus_spec("group.buses.speed_max = 1\n"));
  expect_rejected("group.walkers.speed_max", "0.1",
                  "group.walkers.speed_min (0.5) must be <= group.walkers.speed_max (0.1)",
                  waypoint_spec());
  expect_rejected("group.walkers.speed_max", "nan",
                  "group.walkers.speed_min (0.8) must be <= group.walkers.speed_max (nan)",
                  test::community_spec());
}

TEST(SpecDiagnostics, PauseMinMustBeFiniteAndNonNegative) {
  expect_rejected("group.buses.pause_min", "-5",
                  "group.buses.pause_min must be finite and >= 0 (got -5)");
  expect_rejected("group.walkers.pause_min", "inf",
                  "group.walkers.pause_min must be finite and >= 0 (got inf)", waypoint_spec());
}

TEST(SpecDiagnostics, PauseMaxMustNotBeBelowPauseMin) {
  expect_rejected("group.buses.pause_max", "1",
                  "group.buses.pause_min (5) must be <= group.buses.pause_max (1)");
  expect_rejected("group.walkers.pause_max", "-1",
                  "group.walkers.pause_min (0) must be <= group.walkers.pause_max (-1)",
                  test::community_spec());
}

TEST(SpecDiagnostics, HomeProbMustBeAProbability) {
  // home_prob = 3 would be clamped to 1.
  expect_rejected("group.walkers.home_prob", "3",
                  "group.walkers.home_prob must be in [0, 1] (got 3)", test::community_spec());
  expect_rejected("group.walkers.home_prob", "-0.5",
                  "group.walkers.home_prob must be in [0, 1] (got -0.5)", test::community_spec());
}

TEST(SpecDiagnostics, CommunitiesCountMustBeAtLeastOne) {
  // A non-positive count would run as one class.
  expect_rejected("communities.count", "-3", "communities.count must be >= 1 (got -3)");
  expect_rejected("communities.count", "0", "communities.count must be >= 1 (got 0)",
                  test::community_spec());
}

TEST(SpecDiagnostics, BusGroupOnOpenFieldFailsAtBuildWithContext) {
  ScenarioSpec spec = test::paper_bus_spec();
  spec.duration_s = 10.0;
  apply_override(spec, "map.kind", "open_field");
  try {
    run_scenario(spec);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("requires a map with routes"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace dtn::harness
