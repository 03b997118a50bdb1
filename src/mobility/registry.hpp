// The table of built-in mobility models for the declarative scenario
// layer: each entry knows how to parse and serialize its parameter keys so
// scenario files (`group.<name>.<key> = value`) and sweep overrides can
// address any model uniformly. Node placement / world composition stays in
// the harness (see harness/spec.hpp); this table only owns the model
// parameter vocabulary.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "mobility/bus_movement.hpp"
#include "mobility/community_movement.hpp"
#include "mobility/random_waypoint.hpp"
#include "mobility/stationary.hpp"
#include "util/value_parse.hpp"

namespace dtn::mobility {

/// Union-of-models parameter block for one node group. Only the block
/// selected by the group's model name is meaningful; holding all blocks
/// flat keeps the spec value-semantic (copyable, comparable, no virtuals).
/// World rectangles / home rectangles / routes are NOT part of the group
/// vocabulary — they derive from the map source and community layout at
/// build time, so a scenario file has one source of truth for geometry.
struct GroupParams {
  RandomWaypointParams waypoint;
  CommunityMovementParams community;
  BusParams bus;
  StationaryParams stationary;
};

/// One mobility model.
struct MobilityModelInfo {
  std::string name;
  /// Applies `key = value`; reports unknown keys vs unparsable values.
  util::KvResult (*set)(GroupParams&, const std::string& key, const std::string& value);
  /// Emits this model's (key, value) pairs in canonical order.
  void (*emit)(const GroupParams&, std::vector<std::pair<std::string, std::string>>& out);
};

/// Looks up a model by name; nullptr when unknown.
const MobilityModelInfo* find_mobility_model(const std::string& name);

/// Model names in table order.
std::vector<std::string> mobility_model_names();

}  // namespace dtn::mobility
