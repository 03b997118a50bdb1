#include "geo/map_registry.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>

namespace dtn::geo {

namespace {

using util::KvResult;

// ---- downtown ---------------------------------------------------------------

KvResult downtown_set(MapParams& p, const std::string& key, const std::string& value) {
  DowntownParams& d = p.downtown;
  if (key == "rows") return util::kv_set(d.rows, value);
  if (key == "cols") return util::kv_set(d.cols, value);
  if (key == "block") return util::kv_set(d.block_m, value);
  if (key == "jitter") return util::kv_set(d.jitter_frac, value);
  if (key == "districts") return util::kv_set(d.districts, value);
  if (key == "routes_per_district") return util::kv_set(d.routes_per_district, value);
  if (key == "anchors_per_route") return util::kv_set(d.anchors_per_route, value);
  if (key == "hub_visit_prob") return util::kv_set(d.hub_visit_prob, value);
  return KvResult::kUnknownKey;
}

void downtown_emit(const MapParams& p,
                   std::vector<std::pair<std::string, std::string>>& out) {
  const DowntownParams& d = p.downtown;
  out.emplace_back("rows", util::format_value(d.rows));
  out.emplace_back("cols", util::format_value(d.cols));
  out.emplace_back("block", util::format_value(d.block_m));
  out.emplace_back("jitter", util::format_value(d.jitter_frac));
  out.emplace_back("districts", util::format_value(d.districts));
  out.emplace_back("routes_per_district", util::format_value(d.routes_per_district));
  out.emplace_back("anchors_per_route", util::format_value(d.anchors_per_route));
  out.emplace_back("hub_visit_prob", util::format_value(d.hub_visit_prob));
}

BuiltMap downtown_build(const MapParams& p, std::uint64_t seed) {
  DowntownParams d = p.downtown;
  d.seed = seed;  // the scenario seed drives the map
  BuiltMap built;
  built.network = generate_downtown(d);
  built.routes.reserve(built.network->routes.size());
  for (const auto& r : built.network->routes) {
    built.routes.push_back(std::make_shared<const Polyline>(r.line));
  }
  built.world_min = {0.0, 0.0};
  built.world_max = {built.network->world_width, built.network->world_height};
  return built;
}

// ---- open_field -------------------------------------------------------------

KvResult open_field_set(MapParams& p, const std::string& key, const std::string& value) {
  if (key == "width") return util::kv_set(p.width, value);
  if (key == "height") return util::kv_set(p.height, value);
  return KvResult::kUnknownKey;
}

void open_field_emit(const MapParams& p,
                     std::vector<std::pair<std::string, std::string>>& out) {
  out.emplace_back("width", util::format_value(p.width));
  out.emplace_back("height", util::format_value(p.height));
}

BuiltMap open_field_build(const MapParams& p, std::uint64_t /*seed*/) {
  BuiltMap built;
  built.world_min = {0.0, 0.0};
  built.world_max = {p.width, p.height};
  return built;
}

// ---- trace ------------------------------------------------------------------

KvResult trace_set(MapParams& p, const std::string& key, const std::string& value) {
  if (key == "file") {
    p.trace_file = value;
    return KvResult::kOk;
  }
  return KvResult::kUnknownKey;
}

void trace_emit(const MapParams& p,
                std::vector<std::pair<std::string, std::string>>& out) {
  out.emplace_back("file", p.trace_file);
}

struct CachedTrace {
  std::shared_ptr<const Trace> trace;
  Vec2 lo;  ///< bounding box, computed once at load
  Vec2 hi;
};

/// Traces are seed-independent but build() runs once per scenario run, so
/// a campaign over one trace would re-read the file (and re-scan its
/// extent) for every (protocol, seed) task — cache per path instead.
/// Entries live for the process (fine for CLI/bench lifetimes); files are
/// assumed immutable while cached.
CachedTrace load_trace_cached(const std::string& path) {
  static std::mutex mutex;
  static std::map<std::string, CachedTrace> cache;
  const std::lock_guard<std::mutex> lock(mutex);
  auto& entry = cache[path];
  if (!entry.trace) {
    entry.trace = std::make_shared<const Trace>(read_trace(path));
    if (!entry.trace->samples.empty()) {
      entry.lo = entry.trace->samples.front().pos;
      entry.hi = entry.lo;
      for (const auto& s : entry.trace->samples) {
        entry.lo.x = std::min(entry.lo.x, s.pos.x);
        entry.lo.y = std::min(entry.lo.y, s.pos.y);
        entry.hi.x = std::max(entry.hi.x, s.pos.x);
        entry.hi.y = std::max(entry.hi.y, s.pos.y);
      }
    }
  }
  return entry;
}

BuiltMap trace_build(const MapParams& p, std::uint64_t /*seed*/) {
  if (p.trace_file.empty()) {
    throw std::runtime_error("map.kind = trace requires map.file");
  }
  const CachedTrace cached = load_trace_cached(p.trace_file);
  if (cached.trace->samples.empty()) {
    throw std::runtime_error("trace map '" + p.trace_file + "' has no samples");
  }
  BuiltMap built;
  built.trace = cached.trace;
  built.world_min = cached.lo;
  built.world_max = cached.hi;
  return built;
}

const std::vector<MapKindInfo>& registry() {
  static const std::vector<MapKindInfo> kinds{
      {"downtown", downtown_set, downtown_emit, downtown_build,
       /*provides_routes=*/true, /*provides_trace=*/false},
      {"open_field", open_field_set, open_field_emit, open_field_build,
       /*provides_routes=*/false, /*provides_trace=*/false},
      {"trace", trace_set, trace_emit, trace_build,
       /*provides_routes=*/false, /*provides_trace=*/true},
  };
  return kinds;
}

}  // namespace

const MapKindInfo* find_map_kind(const std::string& name) {
  for (const auto& k : registry()) {
    if (k.name == name) return &k;
  }
  return nullptr;
}

std::vector<std::string> map_kind_names() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& k : registry()) names.push_back(k.name);
  return names;
}

}  // namespace dtn::geo
