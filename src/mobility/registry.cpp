#include "mobility/registry.hpp"

namespace dtn::mobility {

namespace {

using util::KvResult;

// ---- random_waypoint --------------------------------------------------------

KvResult waypoint_set(GroupParams& p, const std::string& key, const std::string& value) {
  if (key == "speed_min") return util::kv_set(p.waypoint.speed_min, value);
  if (key == "speed_max") return util::kv_set(p.waypoint.speed_max, value);
  if (key == "pause_min") return util::kv_set(p.waypoint.pause_min, value);
  if (key == "pause_max") return util::kv_set(p.waypoint.pause_max, value);
  return KvResult::kUnknownKey;
}

void waypoint_emit(const GroupParams& p,
                   std::vector<std::pair<std::string, std::string>>& out) {
  out.emplace_back("speed_min", util::format_value(p.waypoint.speed_min));
  out.emplace_back("speed_max", util::format_value(p.waypoint.speed_max));
  out.emplace_back("pause_min", util::format_value(p.waypoint.pause_min));
  out.emplace_back("pause_max", util::format_value(p.waypoint.pause_max));
}

// ---- community --------------------------------------------------------------

KvResult community_set(GroupParams& p, const std::string& key, const std::string& value) {
  if (key == "home_prob") return util::kv_set(p.community.home_prob, value);
  if (key == "speed_min") return util::kv_set(p.community.speed_min, value);
  if (key == "speed_max") return util::kv_set(p.community.speed_max, value);
  if (key == "pause_min") return util::kv_set(p.community.pause_min, value);
  if (key == "pause_max") return util::kv_set(p.community.pause_max, value);
  return KvResult::kUnknownKey;
}

void community_emit(const GroupParams& p,
                    std::vector<std::pair<std::string, std::string>>& out) {
  out.emplace_back("home_prob", util::format_value(p.community.home_prob));
  out.emplace_back("speed_min", util::format_value(p.community.speed_min));
  out.emplace_back("speed_max", util::format_value(p.community.speed_max));
  out.emplace_back("pause_min", util::format_value(p.community.pause_min));
  out.emplace_back("pause_max", util::format_value(p.community.pause_max));
}

// ---- bus --------------------------------------------------------------------

KvResult bus_set(GroupParams& p, const std::string& key, const std::string& value) {
  if (key == "speed_min") return util::kv_set(p.bus.speed_min, value);
  if (key == "speed_max") return util::kv_set(p.bus.speed_max, value);
  if (key == "stop_spacing") return util::kv_set(p.bus.stop_spacing, value);
  if (key == "pause_min") return util::kv_set(p.bus.pause_min, value);
  if (key == "pause_max") return util::kv_set(p.bus.pause_max, value);
  return KvResult::kUnknownKey;
}

void bus_emit(const GroupParams& p,
              std::vector<std::pair<std::string, std::string>>& out) {
  out.emplace_back("speed_min", util::format_value(p.bus.speed_min));
  out.emplace_back("speed_max", util::format_value(p.bus.speed_max));
  out.emplace_back("stop_spacing", util::format_value(p.bus.stop_spacing));
  out.emplace_back("pause_min", util::format_value(p.bus.pause_min));
  out.emplace_back("pause_max", util::format_value(p.bus.pause_max));
}

// ---- stationary -------------------------------------------------------------
// Infrastructure nodes (relays, roadside units): placement over the map
// extent is the whole vocabulary — `grid` is deterministic row-major,
// `uniform` draws per seed from the node's movement stream.

KvResult stationary_set(GroupParams& p, const std::string& key,
                        const std::string& value) {
  if (key == "placement") {
    if (value != "grid" && value != "uniform") return KvResult::kBadValue;
    p.stationary.placement = value;
    return KvResult::kOk;
  }
  if (key == "margin") return util::kv_set(p.stationary.margin, value);
  return KvResult::kUnknownKey;
}

void stationary_emit(const GroupParams& p,
                     std::vector<std::pair<std::string, std::string>>& out) {
  out.emplace_back("placement", p.stationary.placement);
  out.emplace_back("margin", util::format_value(p.stationary.margin));
}

// ---- trace ------------------------------------------------------------------
// Trajectories come from the map source (map.kind = trace); the group has no
// parameters of its own.

KvResult trace_set(GroupParams&, const std::string&, const std::string&) {
  return KvResult::kUnknownKey;
}

void trace_emit(const GroupParams&, std::vector<std::pair<std::string, std::string>>&) {}

const std::vector<MobilityModelInfo>& registry() {
  static const std::vector<MobilityModelInfo> models{
      {"bus", bus_set, bus_emit},
      {"random_waypoint", waypoint_set, waypoint_emit},
      {"community", community_set, community_emit},
      {"trace", trace_set, trace_emit},
      {"stationary", stationary_set, stationary_emit},
  };
  return models;
}

}  // namespace

const MobilityModelInfo* find_mobility_model(const std::string& name) {
  for (const auto& m : registry()) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::vector<std::string> mobility_model_names() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& m : registry()) names.push_back(m.name);
  return names;
}

}  // namespace dtn::mobility
