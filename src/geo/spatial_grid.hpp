// Cell list for the all-pairs range query behind contact detection.
//
// update() only records a point's position. all_pairs_into() builds the
// cell list from scratch on every call: it buckets every point into square
// cells whose edge is the query radius, sorts the (cell, id) entries with
// an LSD radix sort, and sweeps each cell against itself, its east
// neighbour and the three cells of the next row. Every pair within the
// radius lies in one cell or in two such neighbours, and each unordered
// pair of cells is visited once, so each pair comes out once. Memory is
// O(points) whatever the extent of the map, and a warm call allocates
// nothing past the high-water marks of its scratch and of `out`.
//
// The simulator (sim/world.hpp) calls clear(), update() for every node and
// all_pairs_into() once per rebuild of its contact candidate list, with the
// candidate reach (range + skin) as the radius.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "geo/vec2.hpp"

namespace dtn::geo {

class SpatialGrid {
 public:
  /// Removes every point; capacities are kept.
  void clear() noexcept { pos_.clear(); }
  /// Sets the position of `id` (>= 0), adding the point if it is absent.
  void update(std::int32_t id, Vec2 pos);

  /// Clears `out` and appends, once each, every unordered pair (a < b) of
  /// points with a.distance2_to(b) <= radius^2, in no particular order:
  /// callers that need an order sort. Requires radius > 0. Cell
  /// coordinates wrap at 32 bits, so a pair that straddles the seam 2^31
  /// cells from the origin is missed. The sort scratch makes concurrent
  /// calls on one grid unsafe.
  void all_pairs_into(double radius,
                      std::vector<std::pair<std::int32_t, std::int32_t>>& out) const;

 private:
  struct Entry {
    std::uint64_t key;  ///< biased cell row (high half) and column (low half)
    std::int32_t id;
  };

  std::vector<Vec2> pos_;  ///< by id; NaN for an id not set since clear()
  mutable std::vector<Entry> entries_;  ///< sort scratch, kept between calls
  mutable std::vector<Entry> sort_tmp_;
};

}  // namespace dtn::geo
