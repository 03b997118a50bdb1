#include "geo/map_gen.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace dtn::geo {

namespace {

using util::Pcg32;
using util::StreamPurpose;

// Grid node id for intersection (r, c) given cols+1 intersections per row.
NodeId grid_id(int r, int c, int cols) {
  return static_cast<NodeId>(r * (cols + 1) + c);
}

}  // namespace

MapGraph generate_grid_map(const DowntownParams& params) {
  MapGraph map;
  Pcg32 rng = util::derive_stream(params.seed, 0, StreamPurpose::kMapGen);
  const double jitter = params.jitter_frac * params.block_m;
  for (int r = 0; r <= params.rows; ++r) {
    for (int c = 0; c <= params.cols; ++c) {
      // Keep the outer boundary straight so the bounding box is exact.
      const bool border = r == 0 || c == 0 || r == params.rows || c == params.cols;
      const double jx = border ? 0.0 : rng.uniform(-jitter, jitter);
      const double jy = border ? 0.0 : rng.uniform(-jitter, jitter);
      map.add_node(Vec2{c * params.block_m + jx, r * params.block_m + jy});
    }
  }
  for (int r = 0; r <= params.rows; ++r) {
    for (int c = 0; c <= params.cols; ++c) {
      if (c < params.cols) map.add_edge(grid_id(r, c, params.cols), grid_id(r, c + 1, params.cols));
      if (r < params.rows) map.add_edge(grid_id(r, c, params.cols), grid_id(r + 1, c, params.cols));
    }
  }
  // A few diagonal "avenues" make shortest paths less rectilinear, which
  // diversifies route overlap patterns.
  const int diagonals = (params.rows * params.cols) / 24;
  for (int i = 0; i < diagonals; ++i) {
    const int r = static_cast<int>(rng.uniform_int(0, params.rows - 1));
    const int c = static_cast<int>(rng.uniform_int(0, params.cols - 1));
    map.add_edge(grid_id(r, c, params.cols), grid_id(r + 1, c + 1, params.cols));
  }
  return map;
}

BusNetwork generate_downtown(const DowntownParams& params) {
  BusNetwork net;
  net.map = generate_grid_map(params);
  net.districts = std::max(1, params.districts);
  net.world_width = params.cols * params.block_m;
  net.world_height = params.rows * params.block_m;

  Pcg32 rng = util::derive_stream(params.seed, 1, StreamPurpose::kMapGen);

  // The hub: the intersection nearest the map center. Routes that visit it
  // give CR's inter-community phase its cross-district contact opportunities.
  const NodeId hub = net.map.nearest_node(
      Vec2{net.world_width / 2.0, net.world_height / 2.0});

  const int cols_per_district =
      std::max(1, (params.cols + 1) / net.districts);

  for (int d = 0; d < net.districts; ++d) {
    const int c_lo = d * cols_per_district;
    const int c_hi = d == net.districts - 1 ? params.cols
                                            : std::min(params.cols, c_lo + cols_per_district);
    for (int k = 0; k < params.routes_per_district; ++k) {
      // Pick anchor intersections inside the district's column band.
      std::vector<NodeId> anchors;
      const int tries = std::max(2, params.anchors_per_route);
      for (int a = 0; a < tries; ++a) {
        const int r = static_cast<int>(rng.uniform_int(0, params.rows));
        const int c = static_cast<int>(rng.uniform_int(c_lo, c_hi));
        const NodeId id = grid_id(r, c, params.cols);
        if (std::find(anchors.begin(), anchors.end(), id) == anchors.end()) {
          anchors.push_back(id);
        }
      }
      if (anchors.size() < 2) {
        // Degenerate draw (all anchors collided); fall back to a minimal
        // two-anchor route across the band.
        anchors = {grid_id(0, c_lo, params.cols), grid_id(params.rows, c_hi, params.cols)};
      }
      if (rng.bernoulli(params.hub_visit_prob) &&
          std::find(anchors.begin(), anchors.end(), hub) == anchors.end()) {
        anchors.push_back(hub);
      }
      // Connect the anchors in sequence with shortest paths and close the
      // loop back to the first anchor.
      std::vector<NodeId> walk;
      for (std::size_t i = 0; i < anchors.size(); ++i) {
        const NodeId from = anchors[i];
        const NodeId to = anchors[(i + 1) % anchors.size()];
        std::vector<NodeId> leg = net.map.shortest_path(from, to);
        if (leg.empty()) continue;  // grid maps are connected; defensive only
        if (!walk.empty()) leg.erase(leg.begin());  // drop duplicated junction
        walk.insert(walk.end(), leg.begin(), leg.end());
      }
      if (walk.size() >= 2 && walk.front() == walk.back()) walk.pop_back();
      if (walk.size() < 2) continue;
      BusRoute route;
      route.line = net.map.walk_to_polyline(walk, /*closed=*/true);
      route.district = d;
      if (route.line.total_length() > 0.0) net.routes.push_back(std::move(route));
    }
  }
  return net;
}

}  // namespace dtn::geo
