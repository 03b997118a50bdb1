// Polyline with arc-length parameterization. Bus routes are closed
// polylines; movement models advance a distance-along-route cursor and ask
// the polyline for the corresponding position.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geo/vec2.hpp"

namespace dtn::geo {

class Polyline {
 public:
  Polyline() = default;
  /// `closed` appends an implicit segment from the last point back to the
  /// first, making point_at(s) periodic in total_length().
  explicit Polyline(std::vector<Vec2> points, bool closed = false);

  [[nodiscard]] const std::vector<Vec2>& points() const noexcept { return points_; }
  [[nodiscard]] bool closed() const noexcept { return closed_; }
  [[nodiscard]] bool empty() const noexcept { return points_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }

  /// Total arc length including the closing segment when closed.
  [[nodiscard]] double total_length() const noexcept { return total_length_; }

  /// Position at arc length s from the start. Open polylines clamp to the
  /// endpoints; closed polylines wrap modulo total_length().
  [[nodiscard]] Vec2 point_at(double s) const noexcept;

  /// point_at() with a caller-held segment cursor: `hint` remembers the
  /// last containing segment so a monotonically advancing s (the bus
  /// movement kernel) finds its segment by a short forward walk instead of
  /// a binary search per query. Falls back to the binary search whenever
  /// the hint does not apply (wrap, jump, first call) — the returned
  /// position is bit-identical to point_at(s) in every case.
  [[nodiscard]] Vec2 point_at_hinted(double s, std::uint32_t& hint) const noexcept;

  /// Arc length of the point on the polyline closest to p (open segment
  /// projection). Tests use it to check that a bus lies on its route.
  [[nodiscard]] double project(Vec2 p) const noexcept;

 private:
  [[nodiscard]] double wrap_arc_length(double s) const noexcept;
  [[nodiscard]] Vec2 at_segment(double s, std::size_t idx) const noexcept;

  std::vector<Vec2> points_;
  std::vector<double> cumulative_;  // cumulative_[i] = length up to vertex i
  double total_length_ = 0.0;
  bool closed_ = false;
};

}  // namespace dtn::geo
