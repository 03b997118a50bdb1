// Scenario execution: ScenarioRunner::run(const ScenarioSpec&) is the ONE
// entry point that turns a declarative spec (harness/spec.hpp) into a
// finished simulation. The paper's evaluation setup (Sec. V-A) is one such
// spec: a synthetic downtown map with bus routes, nodes = buses,
// communities = districts (examples/helsinki_buses.cfg).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/community_detection.hpp"
#include "harness/spec.hpp"
#include "sim/metrics.hpp"
#include "sim/world.hpp"

namespace dtn::harness {

struct ScenarioResult {
  sim::Metrics metrics;
  std::int64_t contact_events = 0;
};

/// Reusable scenario executor: owns one sim::World whose allocated capacity
/// (buffer slabs, spatial-grid cells, adjacency/connection/transfer pools,
/// movement lanes, metrics buckets) is retained across run() calls via
/// World::reset(). A worker thread keeps one ScenarioRunner for a whole
/// campaign, so per-run allocation work shrinks to what genuinely differs
/// between runs (the seed-dependent map, router instances). Results are
/// bit-identical to run_scenario on a fresh World (enforced by
/// integration_sweep_test).
class ScenarioRunner {
 public:
  ScenarioRunner();
  ~ScenarioRunner();
  ScenarioRunner(ScenarioRunner&&) noexcept;
  ScenarioRunner& operator=(ScenarioRunner&&) noexcept;

  /// THE execution entry: builds the spec's map, communities, and node
  /// groups through the registries and runs the simulation to completion.
  /// Throws std::invalid_argument (validate_spec / create_router) on
  /// inconsistent specs.
  ScenarioResult run(const ScenarioSpec& spec);

 private:
  /// Builds or resets the owned World for a fresh run under `config`.
  sim::World& prepare(const sim::WorldConfig& config);

  std::unique_ptr<sim::World> world_;
  /// Detected-communities warm-up memo. detect_spec_communities is
  /// deterministic in (map, groups, world, warmup, seed) and routing-free,
  /// so runs that differ only in routing/traffic knobs (a protocol.name or
  /// group.<g>.protocol sweep axis) share one warm-up simulation instead of
  /// re-running bit-identical ones per (point, seed) task. Keyed on the
  /// canonical serialization of the detection-relevant spec fields; one
  /// table per distinct (detection inputs, seed) THIS runner touches — the
  /// memo's scope is the runner, so a threads=N sweep still computes each
  /// warm-up up to once per worker (results identical either way).
  std::unordered_map<std::string, std::shared_ptr<const core::CommunityTable>>
      detected_cache_;
};

/// Runs one spec to completion on a fresh runner (single-shot convenience;
/// campaigns should keep a ScenarioRunner for world reuse).
ScenarioResult run_scenario(const ScenarioSpec& spec);

/// Warm-up detection over ANY valid spec (what `communities.source =
/// detected` executes, with default DetectionParams): builds the spec's
/// world with routing-free contact-logger routers — same map, movement,
/// and per-node seed streams as the real run — runs it for `warmup_s`
/// simulated seconds, and detects communities from the pairwise contact
/// counts. Deterministic in (spec, seed); independent of runner reuse and
/// thread count.
core::CommunityTable detect_spec_communities(const ScenarioSpec& spec,
                                             const core::DetectionParams& detection,
                                             double warmup_s);

}  // namespace dtn::harness
