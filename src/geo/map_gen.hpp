// Synthetic "downtown" generator: a jittered Manhattan road grid divided
// into districts, with cyclic bus routes that mostly stay inside their home
// district but all pass through a central hub. This reproduces the two
// structural properties of the paper's Helsinki bus scenario that the
// results depend on: (1) quasi-periodic pairwise meetings of buses on
// overlapping route segments, and (2) district-level contact locality (the
// "community" structure CR exploits). See DESIGN.md substitution table.
#pragma once

#include <cstdint>
#include <vector>

#include "geo/map_graph.hpp"
#include "geo/polyline.hpp"

namespace dtn::geo {

struct DowntownParams {
  int rows = 12;              ///< grid rows (blocks)
  int cols = 16;              ///< grid columns (blocks)
  double block_m = 250.0;     ///< block edge length in meters
  double jitter_frac = 0.15;  ///< intersection jitter as a fraction of block_m
  int districts = 4;          ///< number of districts (communities)
  int routes_per_district = 3;
  int anchors_per_route = 3;  ///< home-district anchor intersections per route
  double hub_visit_prob = 0.8;  ///< probability a route includes the central hub
  std::uint64_t seed = 1;
};

struct BusRoute {
  Polyline line;  ///< closed polyline over road segments
  int district = 0;
};

struct BusNetwork {
  MapGraph map;
  std::vector<BusRoute> routes;
  int districts = 0;
  double world_width = 0.0;
  double world_height = 0.0;
};

/// Generates the jittered road grid (no routes). Always connected.
MapGraph generate_grid_map(const DowntownParams& params);

/// Generates the full bus network: map + closed routes + district labels.
/// Every route is a closed walk on the road graph with total length > 0.
BusNetwork generate_downtown(const DowntownParams& params);

}  // namespace dtn::geo
