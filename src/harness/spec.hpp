// The declarative experiment-definition API (tentpole of the ScenarioSpec
// redesign): ONE spec type describes a complete simulation run — map
// source, per-group mobility, radio/world, traffic, protocol, communities,
// duration and seed — and ScenarioRunner::run(const ScenarioSpec&) is the
// single execution entry every harness path (sweeps, benches, the dtnsim
// CLI, the C++ API) funnels through.
//
// Composition is table-driven end to end:
//   - map.kind        -> geo::find_map_kind()        (downtown / open_field / trace)
//   - group.*.model   -> find_group_builder(): each model's `group.<name>.*`
//                        keys and its node placement, in one table;
//   - protocol.name   -> routing::create_router()'s protocol registry.
// Maps and models are the built-in tables; protocols alone take new
// entries at runtime (routing::register_protocol), which makes a custom
// router addressable from scenario files and sweep axes with no harness
// changes. Every scenario key is one util::KeyRow: the map kinds and group
// builders list theirs, and spec_io.cpp lists the scalar sections'.
//
// Specs are value types: copyable, serializable to ONE-style `key = value`
// config files (harness/spec_io.hpp), and overridable key-by-key
// (apply_override), which is what makes any parameter sweepable
// (harness/sweep.hpp SpecSweepOptions).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "geo/map_registry.hpp"
#include "mobility/bus_movement.hpp"
#include "mobility/community_movement.hpp"
#include "mobility/random_waypoint.hpp"
#include "mobility/stationary.hpp"
#include "routing/factory.hpp"
#include "sim/traffic.hpp"
#include "sim/world.hpp"

namespace dtn::sim {
class World;
}

namespace dtn::harness {

/// Union-of-models parameter block for one node group. Only the block
/// selected by the group's model name is meaningful; holding all blocks
/// flat keeps the spec value-semantic (copyable, comparable, no virtuals).
/// World rectangles / home rectangles / routes are NOT part of the group
/// vocabulary — they derive from the map source and community layout at
/// build time, so a scenario file has one source of truth for geometry.
struct GroupParams {
  mobility::RandomWaypointParams waypoint;
  mobility::CommunityMovementParams community;
  mobility::BusParams bus;
  mobility::StationaryParams stationary;
};

/// One homogeneous node group: `count` nodes sharing a mobility model and
/// its parameters. Heterogeneous worlds (buses + pedestrians in one run)
/// are expressed as multiple groups; node indices are assigned in group
/// order, first group first.
struct GroupSpec {
  std::string name = "nodes";  ///< key segment: group.<name>.<param>
  std::string model = "bus";   ///< group-builder table key
  int count = 0;
  /// Per-group router override (`group.<name>.protocol`): when non-empty,
  /// this group's nodes run the named protocol instead of the spec-wide
  /// `protocol.name` (heterogeneous routing in one world). The shared knobs
  /// (copies / alpha / window / communities) stay spec-wide.
  std::string protocol;
  GroupParams params;
};

/// Map source: kind selects a geo::MapKindInfo registry entry; params holds
/// the kind's tunables.
struct MapSpec {
  std::string kind = "downtown";
  geo::MapParams params;
};

/// How node -> community ids are assigned (CR's input; ignored by every
/// other protocol).
///   auto        — each group's model decides: bus groups take their route's
///                 district, community groups take their home band, other
///                 models round-robin over `count`;
///   round_robin — community_of(v) = group-local index % count for every
///                 group;
///   detected    — run a routing-free warm-up pass of THIS spec's world
///                 (same map, movement, seed) for `warmup_s` simulated
///                 seconds, collect pairwise contact counts, and detect
///                 communities from them (core::detect_communities) — the
///                 paper's distributed-construction future work, spec-driven.
struct CommunitySpec {
  std::string source = "auto";
  int count = 4;  ///< bands / round-robin classes (also community-group tiling)
  double warmup_s = 1000.0;  ///< detected: warm-up sim seconds
};

/// The valid `communities.source` vocabulary, in documentation order. The
/// conformance matrix walks this instead of a hand-written list.
std::vector<std::string> community_source_names();

/// The same vocabulary as one "a | b | c" string — shared by validate_spec
/// and the parser's bad-value diagnostic so the two messages cannot drift.
std::string community_source_list();

/// One `traffic.<src>.<dst>.*` flow: src/dst are GROUP NAMES (resolved to
/// node-index ranges at build time, in group declaration order). Entries
/// keep declaration order, which is also their RNG-stream index — so a
/// config edit that appends an entry never perturbs existing schedules.
struct TrafficEntrySpec {
  std::string src;
  std::string dst;
  double interval_min = 25.0;
  double interval_max = 35.0;
  std::int64_t size_bytes = 25 * 1024;
  double weight = 1.0;
};

/// The valid `traffic.profile` vocabulary, in documentation order.
std::vector<std::string> traffic_profile_names();

/// The same vocabulary as one "a | b | c" string (see community_source_list).
std::string traffic_profile_list();

/// Name <-> enum mapping for `traffic.profile`. parse returns false on an
/// unknown name; name() is total over the enum.
bool parse_traffic_profile(const std::string& name, sim::TrafficProfile& out);
std::string traffic_profile_name(sim::TrafficProfile profile);

struct ScenarioSpec {
  std::string name = "scenario";
  double duration_s = 10000.0;
  std::uint64_t seed = 1;
  /// When true (default) traffic generation stops at duration - TTL so
  /// every generated message has a full TTL window inside the run.
  bool full_ttl_window = true;

  MapSpec map;
  std::vector<GroupSpec> groups;
  sim::WorldConfig world;      ///< radio/world (seed overlaid from `seed`)
  /// Scalar traffic knobs incl. profile; the scalar interval/size fields
  /// drive the implicit network-wide flow only when traffic_matrix is
  /// empty. `traffic.matrix`/`traffic.trace` are build products — the
  /// spec-level forms are traffic_matrix / traffic_file below.
  sim::TrafficParams traffic;
  /// `traffic.<src>.<dst>.*` flows by group name (empty = network-wide).
  std::vector<TrafficEntrySpec> traffic_matrix;
  /// `traffic.file`: the trace replayed when traffic.profile = trace.
  std::string traffic_file;
  routing::ProtocolConfig protocol;  ///< `communities` filled at build time
  CommunitySpec communities;

  /// Total node count across groups.
  [[nodiscard]] int node_count() const;
};

// ---- group-builder registry -------------------------------------------------
// One row per mobility model: its `group.<name>.*` keys and how its nodes
// join a World. It lives in the harness because placement needs sim/harness
// context (built map, community layout, router factory) that the mobility
// layer must not depend on.

struct GroupBuildContext {
  const ScenarioSpec& spec;
  const geo::BuiltMap& map;
  /// Builds one router for this group's nodes. Installed by the scenario
  /// layer: normally routing::create_router over the group's resolved
  /// protocol (per-group override applied), but a contact pass (a
  /// campaign's shared schedule, or the detected-communities warm-up)
  /// substitutes a routing-free router — group builders
  /// MUST obtain routers through this hook, never from the factory
  /// directly. Null only in assign_communities contexts.
  std::function<std::unique_ptr<sim::Router>()> make_router;
};

struct GroupBuilder {
  std::string model;  ///< `group.<name>.model` value this builder serves
  /// The model's own `group.<name>.<key>` vocabulary, in canonical order
  /// (after the model, count and protocol keys every group has).
  std::vector<util::KeyRow<GroupParams>> fields;
  /// Appends one community id per node of `group` to `cid` ("auto" source;
  /// see CommunitySpec).
  void (*assign_communities)(const GroupBuildContext& ctx, const GroupSpec& group,
                             std::vector<int>& cid);
  /// Adds the group's nodes to `world`, one router per node from
  /// `ctx.make_router()`. Must add exactly group.count nodes in group-local
  /// order.
  void (*add_nodes)(sim::World& world, const GroupBuildContext& ctx,
                    const GroupSpec& group);
  /// Map capabilities this model requires (checked against
  /// geo::MapKindInfo::provides_* in validate_spec, so `dtnsim check`
  /// rejects what run would reject).
  bool needs_routes = false;
  bool needs_trace = false;
  /// Optional model-specific parameter check, called by validate_spec.
  /// Anything add_nodes would hang on or silently misinterpret (a zero
  /// stop spacing, a reversed speed range, an enum-like string that a
  /// programmatic spec set past the parser) must throw here instead.
  /// Null = nothing beyond the key vocabulary.
  void (*validate)(const GroupSpec& group) = nullptr;
};

const GroupBuilder* find_group_builder(const std::string& model);

/// Model names in table order.
std::vector<std::string> group_model_names();

/// The assign_communities fallback for models without intrinsic community
/// structure: group-local index % CommunitySpec::count. Also used for
/// every group when communities.source = round_robin.
void round_robin_communities(const GroupBuildContext& ctx, const GroupSpec& group,
                             std::vector<int>& cid);

/// The group's effective protocol config: the spec-wide block with the
/// per-group name override applied (shared knobs stay spec-wide).
routing::ProtocolConfig resolved_protocol(const ScenarioSpec& spec,
                                          const GroupSpec& group);

/// Validates spec consistency beyond per-key parsing (at least one group,
/// known model/map/protocol names incl. per-group overrides, model/map
/// compatibility, the selected map kind's values, each group model's
/// speed/pause/stop values, communities source vocabulary and
/// count >= 1, the protocol knobs: copies >= 1, alpha finite and > 0,
/// window >= 1; the traffic section: interval/ttl/size/window sanity,
/// profile parameters, matrix entries naming real groups, full_ttl_window
/// leaving a creation window). Throws std::invalid_argument with an
/// explanatory message.
void validate_spec(const ScenarioSpec& spec);

}  // namespace dtn::harness
