#include "geo/polyline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace dtn::geo {

Polyline::Polyline(std::vector<Vec2> points, bool closed)
    : points_(std::move(points)), closed_(closed) {
  cumulative_.resize(points_.size(), 0.0);
  for (std::size_t i = 1; i < points_.size(); ++i) {
    cumulative_[i] = cumulative_[i - 1] + points_[i - 1].distance_to(points_[i]);
  }
  total_length_ = points_.empty() ? 0.0 : cumulative_.back();
  if (closed_ && points_.size() >= 2) {
    total_length_ += points_.back().distance_to(points_.front());
  }
}

double Polyline::wrap_arc_length(double s) const noexcept {
  if (closed_ && total_length_ > 0.0) {
    s = std::fmod(s, total_length_);
    if (s < 0.0) s += total_length_;
    return s;
  }
  return std::clamp(s, 0.0, total_length_);
}

Vec2 Polyline::at_segment(double s, std::size_t idx) const noexcept {
  // `idx` is the upper_bound index: first vertex whose cumulative length
  // exceeds s, or size() when s lies on the closing segment.
  if (idx == cumulative_.size()) {
    // On the closing segment (only reachable when closed).
    const double seg_start = cumulative_.back();
    const double seg_len = total_length_ - seg_start;
    const double t = seg_len > 0.0 ? (s - seg_start) / seg_len : 0.0;
    return lerp(points_.back(), points_.front(), t);
  }
  if (idx == 0) return points_[0];
  const double seg_start = cumulative_[idx - 1];
  const double seg_len = cumulative_[idx] - seg_start;
  const double t = seg_len > 0.0 ? (s - seg_start) / seg_len : 0.0;
  return lerp(points_[idx - 1], points_[idx], t);
}

Vec2 Polyline::point_at(double s) const noexcept {
  if (points_.empty()) return {};
  if (points_.size() == 1) return points_[0];
  s = wrap_arc_length(s);
  // Binary search over cumulative lengths for the containing segment.
  const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), s);
  return at_segment(s, static_cast<std::size_t>(it - cumulative_.begin()));
}

Vec2 Polyline::point_at_hinted(double s, std::uint32_t& hint) const noexcept {
  if (points_.empty()) return {};
  if (points_.size() == 1) return points_[0];
  s = wrap_arc_length(s);
  const std::size_t n = cumulative_.size();
  std::size_t idx = std::min<std::size_t>(hint, n);
  if (idx > 0 && cumulative_[idx - 1] > s) {
    // The cursor jumped backwards (wrap / reseed): rebase by binary search.
    const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), s);
    idx = static_cast<std::size_t>(it - cumulative_.begin());
  } else {
    // Forward walk from a position at or before the target segment lands
    // on the same "first cumulative > s" index upper_bound would find.
    while (idx < n && cumulative_[idx] <= s) ++idx;
  }
  hint = static_cast<std::uint32_t>(idx);
  return at_segment(s, idx);
}

double Polyline::project(Vec2 p) const noexcept {
  if (points_.size() < 2) return 0.0;
  double best_s = 0.0;
  double best_d2 = std::numeric_limits<double>::infinity();
  const std::size_t segs = closed_ ? points_.size() : points_.size() - 1;
  for (std::size_t i = 0; i < segs; ++i) {
    const Vec2 a = points_[i];
    const Vec2 b = points_[(i + 1) % points_.size()];
    const Vec2 ab = b - a;
    const double len2 = ab.norm2();
    double t = len2 > 0.0 ? std::clamp((p - a).dot(ab) / len2, 0.0, 1.0) : 0.0;
    const Vec2 q = a + ab * t;
    const double d2 = p.distance2_to(q);
    if (d2 < best_d2) {
      best_d2 = d2;
      const double seg_start = i < cumulative_.size() ? cumulative_[i] : 0.0;
      best_s = seg_start + t * std::sqrt(len2);
    }
  }
  return best_s;
}

}  // namespace dtn::geo
