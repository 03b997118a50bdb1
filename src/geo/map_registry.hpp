// The table of built-in map sources for the declarative scenario layer.
// A map source turns `map.*` keys into the world geometry a scenario runs
// on: the downtown generator (bus routes + districts), an open field (just
// an extent, for waypoint-style mobility), or a recorded trace (extent +
// per-node trajectories). Like the harness's group builders, entries list
// their `map.*` keys as util::KeyRow fields (which the scenario parser and
// printer read) and own the build step; scenario composition stays in the
// harness.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "geo/map_gen.hpp"
#include "geo/trace.hpp"
#include "util/value_parse.hpp"

namespace dtn::geo {

/// Union-of-kinds parameter block for the map source (same flat-value
/// pattern as harness::GroupParams). `downtown.seed` is not part of the
/// key vocabulary: the scenario seed overrides it at build time so one seed
/// drives the whole run.
struct MapParams {
  DowntownParams downtown;
  double width = 2400.0;   ///< open_field extent (m)
  double height = 2400.0;  ///< open_field extent (m)
  std::string trace_file;  ///< trace source path
};

/// A built map: everything group builders need to place nodes.
struct BuiltMap {
  Vec2 world_min{0.0, 0.0};
  Vec2 world_max{0.0, 0.0};
  /// Downtown only: the generated network (districts for communities).
  std::optional<BusNetwork> network;
  /// Downtown only: routes as shared polylines, one per BusNetwork route.
  std::vector<std::shared_ptr<const Polyline>> routes;
  /// Trace only: the loaded trace (shared: cached per path, so sweep
  /// workers re-running the same scenario don't re-read the file).
  std::shared_ptr<const Trace> trace;
};

struct MapKindInfo {
  std::string name;
  /// The kind's `map.<key>` vocabulary, in canonical order.
  std::vector<util::KeyRow<MapParams>> fields;
  /// Builds the geometry. `seed` is the scenario seed (downtown maps vary
  /// with it). Throws std::runtime_error on unloadable inputs (trace file).
  BuiltMap (*build)(const MapParams&, std::uint64_t seed);
  /// Capabilities, matched against group-model needs at spec validation so
  /// `dtnsim check` rejects what run would reject (e.g. a bus group on an
  /// open field).
  bool provides_routes = false;
  bool provides_trace = false;
};

const MapKindInfo* find_map_kind(const std::string& name);
std::vector<std::string> map_kind_names();

}  // namespace dtn::geo
