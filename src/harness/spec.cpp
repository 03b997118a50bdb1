#include "harness/spec.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "mobility/bus_movement.hpp"
#include "mobility/trace_playback.hpp"
#include "sim/world.hpp"
#include "util/value_parse.hpp"

namespace dtn::harness {

int ScenarioSpec::node_count() const {
  int total = 0;
  for (const auto& g : groups) total += g.count;
  return total;
}

namespace {

[[noreturn]] void build_error(const GroupSpec& group, const std::string& what) {
  throw std::invalid_argument("group '" + group.name + "': " + what);
}

// ---- value checks -------------------------------------------------------------
// validate_spec's diagnostics: "<key> must be <rule> (got <value>)", or
// "<lo_key> (<lo>) must be <= <hi_key> (<hi>)" for a range.

template <typename T>
void require(bool ok, const std::string& key, const char* rule, T got) {
  if (!ok) {
    throw std::invalid_argument(key + " must be " + rule + " (got " +
                                util::format_value(got) + ")");
  }
}

void require_positive(const std::string& key, double v) {
  require(std::isfinite(v) && v > 0.0, key, "finite and > 0", v);
}

void require_non_negative(const std::string& key, double v) {
  require(std::isfinite(v) && v >= 0.0, key, "finite and >= 0", v);
}

void require_probability(const std::string& key, double v) {
  require(v >= 0.0 && v <= 1.0, key, "in [0, 1]", v);
}

void require_ordered(const std::string& lo_key, double lo, const std::string& hi_key,
                     double hi) {
  if (!(lo <= hi)) {
    throw std::invalid_argument(lo_key + " (" + util::format_value(lo) + ") must be <= " +
                                hi_key + " (" + util::format_value(hi) + ")");
  }
}

/// The speed and pause rules of every moving model. A bus must move
/// (`must_move`); a walker with speed 0 is the documented frozen walker.
template <typename Params>
void validate_motion(const GroupSpec& group, const Params& p, bool must_move) {
  const std::string key = "group." + group.name + ".";
  if (must_move) {
    require_positive(key + "speed_min", p.speed_min);
  } else {
    require_non_negative(key + "speed_min", p.speed_min);
  }
  require_ordered(key + "speed_min", p.speed_min, key + "speed_max", p.speed_max);
  require_non_negative(key + "pause_min", p.pause_min);
  require_ordered(key + "pause_min", p.pause_min, key + "pause_max", p.pause_max);
}

// ---- bus --------------------------------------------------------------------
// Route assignment is round-robin over the map's routes by group-local
// index; community = the route's district (the paper's setup). Matches a
// hand-rolled World of the same buses bit for bit when the spec has one bus
// group (enforced by harness_spec_equivalence_test).

void bus_assign_communities(const GroupBuildContext& ctx, const GroupSpec& group,
                            std::vector<int>& cid) {
  if (!ctx.map.network || ctx.map.network->routes.empty()) {
    build_error(group, "model 'bus' requires a map with routes (map.kind = downtown)");
  }
  const auto& routes = ctx.map.network->routes;
  for (int v = 0; v < group.count; ++v) {
    cid.push_back(routes[static_cast<std::size_t>(v) % routes.size()].district);
  }
}

// A zero stop spacing puts every stop at the cursor: with zero pauses the
// engine then takes zero-length legs forever.
void bus_validate(const GroupSpec& group) {
  validate_motion(group, group.params.bus, /*must_move=*/true);
  require_positive("group." + group.name + ".stop_spacing", group.params.bus.stop_spacing);
}

void bus_add_nodes(sim::World& world, const GroupBuildContext& ctx,
                   const GroupSpec& group) {
  if (ctx.map.routes.empty()) {
    build_error(group, "model 'bus' requires a map with routes (map.kind = downtown)");
  }
  for (int v = 0; v < group.count; ++v) {
    const std::size_t route_idx = static_cast<std::size_t>(v) % ctx.map.routes.size();
    // Spec-form add_node: the bus lane takes the route + params directly,
    // no per-node heap movement object.
    world.add_node(ctx.map.routes[route_idx], group.params.bus, ctx.make_router());
  }
}

// ---- community --------------------------------------------------------------
// The map extent is tiled into communities.count vertical bands; node v
// (group-local) belongs to band v % count (= round_robin_communities) and
// keeps its waypoints inside it with probability home_prob. Matches a
// hand-rolled World of the same walkers bit for bit for a single group on
// an open-field map (enforced by harness_spec_equivalence_test).

void community_validate(const GroupSpec& group) {
  validate_motion(group, group.params.community, /*must_move=*/false);
  require_probability("group." + group.name + ".home_prob", group.params.community.home_prob);
}

void community_add_nodes(sim::World& world, const GroupBuildContext& ctx,
                         const GroupSpec& group) {
  const int l = ctx.spec.communities.count;
  const double band =
      (ctx.map.world_max.x - ctx.map.world_min.x) / static_cast<double>(l);
  for (int v = 0; v < group.count; ++v) {
    const int c = v % l;
    mobility::CommunityMovementParams mp = group.params.community;
    mp.world_min = ctx.map.world_min;
    mp.world_max = ctx.map.world_max;
    mp.home_min = {ctx.map.world_min.x + band * c, ctx.map.world_min.y};
    mp.home_max = {ctx.map.world_min.x + band * (c + 1), ctx.map.world_max.y};
    world.add_node(mp, ctx.make_router());
  }
}

// ---- random_waypoint --------------------------------------------------------
// Unstructured control: waypoints uniform over the whole map extent;
// communities round-robin (the model has no structure to derive them from).

void waypoint_validate(const GroupSpec& group) {
  validate_motion(group, group.params.waypoint, /*must_move=*/false);
}

void waypoint_add_nodes(sim::World& world, const GroupBuildContext& ctx,
                        const GroupSpec& group) {
  for (int v = 0; v < group.count; ++v) {
    mobility::RandomWaypointParams mp = group.params.waypoint;
    mp.world_min = ctx.map.world_min;
    mp.world_max = ctx.map.world_max;
    world.add_node(mp, ctx.make_router());
  }
}

// ---- stationary -------------------------------------------------------------
// Infrastructure relays: fixed nodes over the map extent. `grid` placement
// is deterministic (row-major on a near-square grid inset by `margin`), so
// the same spec puts relays in the same spots at every seed; `uniform`
// placement draws each node's position from its own movement stream at
// init, so positions vary per seed like every other model's trajectories.
// Stationary nodes cost nothing in the movement step loop (dedicated
// engine lane that step_all never visits).

std::vector<std::string> stationary_placements() { return {"grid", "uniform"}; }

void stationary_validate(const GroupSpec& group) {
  const std::string& placement = group.params.stationary.placement;
  // The parser vets this per key (the placement row's allowed values), but
  // a programmatic spec skips the parser; without this check a typo would
  // silently run as grid and then serialize into a config load_spec rejects.
  if (placement != "grid" && placement != "uniform") {
    build_error(group, "stationary placement must be 'grid' or 'uniform' (got '" +
                           placement + "')");
  }
  // An oversized margin collapses to the extent's center line by design,
  // but a negative one is a sign slip that would silently clamp to 0.
  if (group.params.stationary.margin < 0.0) {
    build_error(group, "stationary margin must be >= 0");
  }
}

void stationary_add_nodes(sim::World& world, const GroupBuildContext& ctx,
                          const GroupSpec& group) {
  const mobility::StationaryParams& p = group.params.stationary;
  geo::Vec2 lo = ctx.map.world_min;
  geo::Vec2 hi = ctx.map.world_max;
  // Inset by the margin where the extent allows it; a margin that would
  // invert the rectangle collapses to the extent's center line instead.
  const double inset_x = std::clamp(p.margin, 0.0, (hi.x - lo.x) / 2.0);
  const double inset_y = std::clamp(p.margin, 0.0, (hi.y - lo.y) / 2.0);
  lo.x += inset_x;
  hi.x -= inset_x;
  lo.y += inset_y;
  hi.y -= inset_y;
  if (p.placement == "uniform") {
    mobility::StationaryNodeSpec spec;
    spec.uniform = true;
    spec.area_min = lo;
    spec.area_max = hi;
    for (int v = 0; v < group.count; ++v) world.add_node(spec, ctx.make_router());
    return;
  }
  // grid: row-major over a near-square cols x rows layout, cell centers.
  const int cols = std::max(1, static_cast<int>(std::ceil(
                                   std::sqrt(static_cast<double>(group.count)))));
  const int rows = std::max(1, (group.count + cols - 1) / cols);
  for (int v = 0; v < group.count; ++v) {
    const int col = v % cols;
    const int row = v / cols;
    mobility::StationaryNodeSpec spec;
    spec.pos = {lo.x + (hi.x - lo.x) * ((col + 0.5) / cols),
                lo.y + (hi.y - lo.y) * ((row + 0.5) / rows)};
    world.add_node(spec, ctx.make_router());
  }
}

// ---- trace ------------------------------------------------------------------
// Node v (group-local) replays trace node v from the map's trace source.

void trace_add_nodes(sim::World& world, const GroupBuildContext& ctx,
                     const GroupSpec& group) {
  if (!ctx.map.trace) {
    build_error(group, "model 'trace' requires map.kind = trace");
  }
  auto models = mobility::TracePlayback::from_trace(*ctx.map.trace);
  if (static_cast<int>(models.size()) < group.count) {
    build_error(group, "trace has " + std::to_string(models.size()) +
                           " nodes, group wants " + std::to_string(group.count));
  }
  for (int v = 0; v < group.count; ++v) {
    world.add_node(std::move(models[static_cast<std::size_t>(v)]), ctx.make_router());
  }
}

/// The world and duration section of validate_spec. Each rejected value
/// would otherwise run silently empty: World::step_count_for gives 0 steps
/// for a non-positive or NaN step_dt or duration, a zero bitrate or buffer
/// never moves or stores a message, and a step count beyond int64_t makes
/// its cast undefined.
void validate_run_parameters(const ScenarioSpec& spec) {
  const sim::WorldConfig& w = spec.world;
  require_positive("world.step_dt", w.step_dt);
  require_positive("world.radio_range", w.radio_range);
  require_positive("world.bitrate_bps", w.bitrate_bps);
  require(w.buffer_bytes > 0, "world.buffer_bytes", "> 0", w.buffer_bytes);
  require_non_negative("world.ttl_sweep_interval", w.ttl_sweep_interval);
  require_positive("scenario.duration", spec.duration_s);
  // Step counts at or above 2^63 do not fit World::step_count_for's int64_t.
  if (!(spec.duration_s / w.step_dt < 0x1p63)) {
    throw std::invalid_argument(
        "scenario.duration must be under 2^63 steps of world.step_dt (got " +
        util::format_value(spec.duration_s) + " s at world.step_dt " +
        util::format_value(w.step_dt) + ")");
  }
}

/// The protocol section of validate_spec. Each rejected value would
/// otherwise run a different protocol without a word: copies < 1 leaves a
/// quota router no replicas to spray, so EER falls back to direct delivery;
/// a NaN alpha compares false everywhere and behaves as alpha = inf; a zero
/// window is clamped to one interval per pair.
void validate_protocol(const ScenarioSpec& spec) {
  const routing::ProtocolConfig& p = spec.protocol;
  require(p.copies >= 1, "protocol.copies", ">= 1", p.copies);
  require_positive("protocol.alpha", p.alpha);
  require(p.window >= 1, "protocol.window", ">= 1", p.window);
}

/// The traffic section of validate_spec: interval/size/ttl/window sanity
/// for the scalar knobs and every matrix entry, profile parameters, and
/// matrix entries naming real groups. Pre-spec these were never checked —
/// a reversed interval fed Pcg32::uniform a backwards range silently.
void validate_traffic(const ScenarioSpec& spec) {
  const sim::TrafficParams& t = spec.traffic;
  auto check_intervals = [](const std::string& prefix, double lo, double hi) {
    require(lo >= 0.0, prefix + "interval_min", ">= 0", lo);
    require(hi > 0.0, prefix + "interval_max", "> 0", hi);
    require_ordered(prefix + "interval_min", lo, prefix + "interval_max", hi);
  };
  check_intervals("traffic.", t.interval_min, t.interval_max);
  require(t.ttl > 0.0, "traffic.ttl", "> 0", t.ttl);
  require(t.size_bytes > 0, "traffic.size_bytes", "> 0", t.size_bytes);
  require_ordered("traffic.start", t.start, "traffic.stop", t.stop);
  if (spec.full_ttl_window && t.ttl >= spec.duration_s) {
    // Pre-fix this silently produced a negative creation window and a run
    // with zero messages (delivery_ratio = 0 with no hint why).
    throw std::invalid_argument(
        "scenario.full_ttl_window with traffic.ttl (" + util::format_value(t.ttl) +
        ") >= scenario.duration (" + util::format_value(spec.duration_s) +
        ") leaves no creation window — lower the TTL, extend the run, or set "
        "scenario.full_ttl_window = false");
  }
  if (t.profile == sim::TrafficProfile::kOnOff) {
    if (!(t.on_s > 0.0)) {
      throw std::invalid_argument("traffic.profile = onoff requires traffic.on > 0");
    }
    require(t.off_s >= 0.0, "traffic.off", ">= 0", t.off_s);
  }
  if (t.profile == sim::TrafficProfile::kDiurnal && !(t.period_s > 0.0)) {
    throw std::invalid_argument("traffic.profile = diurnal requires traffic.period > 0");
  }
  if (t.profile == sim::TrafficProfile::kTrace) {
    if (spec.traffic_file.empty()) {
      throw std::invalid_argument("traffic.profile = trace requires traffic.file");
    }
    if (!spec.traffic_matrix.empty()) {
      throw std::invalid_argument(
          "traffic.profile = trace replays traffic.file verbatim and cannot be "
          "combined with traffic.<src>.<dst> matrix entries");
    }
  }
  for (std::size_t i = 0; i < spec.traffic_matrix.size(); ++i) {
    const TrafficEntrySpec& e = spec.traffic_matrix[i];
    const std::string prefix = "traffic." + e.src + "." + e.dst + ".";
    for (const std::string* name : {&e.src, &e.dst}) {
      bool known = false;
      for (const auto& g : spec.groups) known = known || g.name == *name;
      if (!known) {
        throw std::invalid_argument("traffic." + e.src + "." + e.dst +
                                    ": unknown group '" + *name + "'");
      }
    }
    check_intervals(prefix, e.interval_min, e.interval_max);
    require(e.size_bytes > 0, prefix + "size_bytes", "> 0", e.size_bytes);
    require(e.weight > 0.0, prefix + "weight", "> 0", e.weight);
    for (std::size_t j = i + 1; j < spec.traffic_matrix.size(); ++j) {
      if (spec.traffic_matrix[j].src == e.src && spec.traffic_matrix[j].dst == e.dst) {
        throw std::invalid_argument("duplicate traffic matrix entry traffic." +
                                    e.src + "." + e.dst);
      }
    }
  }
}

/// The map-side counterpart of GroupBuilder::validate: the selected kind's
/// `map.*` values. Unchecked, a zero count or NaN extent runs an empty or
/// silently clamped map (the generator raises anchors_per_route to 2).
void validate_map(const MapSpec& map) {
  const geo::MapParams& p = map.params;
  if (map.kind == "open_field") {
    require_positive("map.width", p.width);
    require_positive("map.height", p.height);
  } else if (map.kind == "downtown") {
    const geo::DowntownParams& d = p.downtown;
    require(d.rows >= 1, "map.rows", ">= 1", d.rows);
    require(d.cols >= 1, "map.cols", ">= 1", d.cols);
    require(d.districts >= 1, "map.districts", ">= 1", d.districts);
    require(d.routes_per_district >= 1, "map.routes_per_district", ">= 1",
            d.routes_per_district);
    require(d.anchors_per_route >= 2, "map.anchors_per_route", ">= 2", d.anchors_per_route);
    require_positive("map.block", d.block_m);
    require_non_negative("map.jitter", d.jitter_frac);
    require_probability("map.hub_visit_prob", d.hub_visit_prob);
  } else if (map.kind == "trace" && p.trace_file.empty()) {
    throw std::invalid_argument("map.kind = trace requires map.file");
  }
}

const std::vector<GroupBuilder>& registry() {
  using util::field_at;
  using G = GroupParams;
  using Bus = mobility::BusParams;
  using Walk = mobility::RandomWaypointParams;
  using Home = mobility::CommunityMovementParams;
  using Fixed = mobility::StationaryParams;
  static const std::vector<GroupBuilder> builders{
      {"bus",
       {{"speed_min", field_at<&G::bus, &Bus::speed_min>},
        {"speed_max", field_at<&G::bus, &Bus::speed_max>},
        {"stop_spacing", field_at<&G::bus, &Bus::stop_spacing>},
        {"pause_min", field_at<&G::bus, &Bus::pause_min>},
        {"pause_max", field_at<&G::bus, &Bus::pause_max>}},
       bus_assign_communities, bus_add_nodes,
       /*needs_routes=*/true, /*needs_trace=*/false, bus_validate},
      {"random_waypoint",
       {{"speed_min", field_at<&G::waypoint, &Walk::speed_min>},
        {"speed_max", field_at<&G::waypoint, &Walk::speed_max>},
        {"pause_min", field_at<&G::waypoint, &Walk::pause_min>},
        {"pause_max", field_at<&G::waypoint, &Walk::pause_max>}},
       round_robin_communities, waypoint_add_nodes,
       /*needs_routes=*/false, /*needs_trace=*/false, waypoint_validate},
      {"community",
       {{"home_prob", field_at<&G::community, &Home::home_prob>},
        {"speed_min", field_at<&G::community, &Home::speed_min>},
        {"speed_max", field_at<&G::community, &Home::speed_max>},
        {"pause_min", field_at<&G::community, &Home::pause_min>},
        {"pause_max", field_at<&G::community, &Home::pause_max>}},
       round_robin_communities, community_add_nodes,
       /*needs_routes=*/false, /*needs_trace=*/false, community_validate},
      // Trajectories come from the map source (map.kind = trace); the
      // group has no parameters of its own.
      {"trace", {}, round_robin_communities, trace_add_nodes,
       /*needs_routes=*/false, /*needs_trace=*/true},
      {"stationary",
       {{"placement", field_at<&G::stationary, &Fixed::placement>, stationary_placements},
        {"margin", field_at<&G::stationary, &Fixed::margin>}},
       round_robin_communities, stationary_add_nodes,
       /*needs_routes=*/false, /*needs_trace=*/false, stationary_validate},
  };
  return builders;
}

}  // namespace

void round_robin_communities(const GroupBuildContext& ctx, const GroupSpec& group,
                             std::vector<int>& cid) {
  for (int v = 0; v < group.count; ++v) cid.push_back(v % ctx.spec.communities.count);
}

std::vector<std::string> community_source_names() {
  return {"auto", "round_robin", "detected"};
}

std::string community_source_list() {
  std::string joined;
  for (const auto& s : community_source_names()) {
    if (!joined.empty()) joined += " | ";
    joined += s;
  }
  return joined;
}

std::vector<std::string> traffic_profile_names() {
  return {"uniform", "onoff", "diurnal", "trace"};
}

std::string traffic_profile_list() {
  std::string joined;
  for (const auto& s : traffic_profile_names()) {
    if (!joined.empty()) joined += " | ";
    joined += s;
  }
  return joined;
}

bool parse_traffic_profile(const std::string& name, sim::TrafficProfile& out) {
  if (name == "uniform") {
    out = sim::TrafficProfile::kUniform;
  } else if (name == "onoff") {
    out = sim::TrafficProfile::kOnOff;
  } else if (name == "diurnal") {
    out = sim::TrafficProfile::kDiurnal;
  } else if (name == "trace") {
    out = sim::TrafficProfile::kTrace;
  } else {
    return false;
  }
  return true;
}

std::string traffic_profile_name(sim::TrafficProfile profile) {
  switch (profile) {
    case sim::TrafficProfile::kUniform:
      return "uniform";
    case sim::TrafficProfile::kOnOff:
      return "onoff";
    case sim::TrafficProfile::kDiurnal:
      return "diurnal";
    case sim::TrafficProfile::kTrace:
      return "trace";
  }
  return "uniform";
}

routing::ProtocolConfig resolved_protocol(const ScenarioSpec& spec,
                                          const GroupSpec& group) {
  routing::ProtocolConfig protocol = spec.protocol;
  if (!group.protocol.empty()) protocol.name = group.protocol;
  return protocol;
}

const GroupBuilder* find_group_builder(const std::string& model) {
  for (const auto& b : registry()) {
    if (b.model == model) return &b;
  }
  return nullptr;
}

std::vector<std::string> group_model_names() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& b : registry()) names.push_back(b.model);
  return names;
}

void validate_spec(const ScenarioSpec& spec) {
  if (spec.groups.empty()) {
    throw std::invalid_argument("spec has no node groups (add group.<name>.model)");
  }
  validate_run_parameters(spec);
  const geo::MapKindInfo* map_kind = geo::find_map_kind(spec.map.kind);
  if (map_kind == nullptr) {
    throw std::invalid_argument("unknown map kind '" + spec.map.kind + "'");
  }
  validate_map(spec.map);
  require(spec.communities.count >= 1, "communities.count", ">= 1", spec.communities.count);
  const std::vector<std::string> sources = community_source_names();
  if (std::find(sources.begin(), sources.end(), spec.communities.source) ==
      sources.end()) {
    throw std::invalid_argument("communities.source must be one of: " +
                                community_source_list());
  }
  if (spec.communities.source == "detected" && !(spec.communities.warmup_s > 0.0)) {
    throw std::invalid_argument(
        "communities.source = detected requires communities.warmup > 0");
  }
  for (std::size_t i = 0; i < spec.groups.size(); ++i) {
    const GroupSpec& g = spec.groups[i];
    // Group names are config-key segments (group.<name>.<param>), so the
    // charset must keep the serialized form parseable.
    bool name_ok = !g.name.empty();
    for (const char c : g.name) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '-') {
        name_ok = false;
        break;
      }
    }
    if (!name_ok) {
      throw std::invalid_argument(
          "group name '" + g.name +
          "' must be non-empty letters/digits/'_'/'-' (it becomes a config key)");
    }
    if (g.count < 0) {
      throw std::invalid_argument("group '" + g.name + "': count must be >= 0");
    }
    const GroupBuilder* builder = find_group_builder(g.model);
    if (builder == nullptr) {
      throw std::invalid_argument("group '" + g.name + "': unknown mobility model '" +
                                  g.model + "'");
    }
    if (builder->needs_routes && !map_kind->provides_routes) {
      throw std::invalid_argument("group '" + g.name + "': model '" + g.model +
                                  "' requires a map with routes (map.kind = " +
                                  spec.map.kind + " has none)");
    }
    if (builder->needs_trace && !map_kind->provides_trace) {
      throw std::invalid_argument("group '" + g.name + "': model '" + g.model +
                                  "' requires map.kind = trace (map.kind = " +
                                  spec.map.kind + ")");
    }
    if (builder->validate != nullptr) builder->validate(g);
    if (!g.protocol.empty() && !routing::is_known_protocol(g.protocol)) {
      throw std::invalid_argument("group '" + g.name + "': unknown protocol '" +
                                  g.protocol + "'");
    }
    for (std::size_t j = i + 1; j < spec.groups.size(); ++j) {
      if (spec.groups[j].name == g.name) {
        throw std::invalid_argument("duplicate group name '" + g.name + "'");
      }
    }
  }
  if (spec.node_count() <= 0) {
    throw std::invalid_argument("spec has no nodes (set group.<name>.count)");
  }
  if (!routing::is_known_protocol(spec.protocol.name)) {
    throw std::invalid_argument("unknown protocol '" + spec.protocol.name + "'");
  }
  validate_protocol(spec);
  validate_traffic(spec);
}

}  // namespace dtn::harness
