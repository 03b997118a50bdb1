#include "geo/map_registry.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>

namespace dtn::geo {

namespace {

// ---- downtown ---------------------------------------------------------------

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

BuiltMap open_field_build(const MapParams& p, std::uint64_t /*seed*/) {
  BuiltMap built;
  built.world_min = {0.0, 0.0};
  built.world_max = {p.width, p.height};
  return built;
}

// ---- trace ------------------------------------------------------------------

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
  using util::field_at;
  using M = MapParams;
  using D = DowntownParams;
  static const std::vector<MapKindInfo> kinds{
      {"downtown",
       {{"rows", field_at<&M::downtown, &D::rows>},
        {"cols", field_at<&M::downtown, &D::cols>},
        {"block", field_at<&M::downtown, &D::block_m>},
        {"jitter", field_at<&M::downtown, &D::jitter_frac>},
        {"districts", field_at<&M::downtown, &D::districts>},
        {"routes_per_district", field_at<&M::downtown, &D::routes_per_district>},
        {"anchors_per_route", field_at<&M::downtown, &D::anchors_per_route>},
        {"hub_visit_prob", field_at<&M::downtown, &D::hub_visit_prob>}},
       downtown_build, /*provides_routes=*/true, /*provides_trace=*/false},
      {"open_field",
       {{"width", field_at<&M::width>}, {"height", field_at<&M::height>}},
       open_field_build, /*provides_routes=*/false, /*provides_trace=*/false},
      {"trace", {{"file", field_at<&M::trace_file>}}, trace_build,
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
