#include "sim/event_kernel.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "mobility/movement_engine.hpp"
#include "sim/world.hpp"

namespace dtn::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

EventKernel::EventKernel(World& world)
    : w_(world),
      dt_(world.config_.step_dt),
      cell_(world.config_.radio_range),
      r2_(world.config_.radio_range * world.config_.radio_range),
      inv_cell_(1.0 / world.config_.radio_range) {}

bool EventKernel::ev_after(const Ev& x, const Ev& y) noexcept {
  if (x.time != y.time) return x.time > y.time;
  if (x.kind != y.kind) return x.kind > y.kind;
  if (x.a != y.a) return x.a > y.a;
  return x.b > y.b;
}

void EventKernel::push(const Ev& ev) {
  heap_.push_back(ev);
  std::push_heap(heap_.begin(), heap_.end(), &EventKernel::ev_after);
}

EventKernel::Ev EventKernel::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), &EventKernel::ev_after);
  const Ev ev = heap_.back();
  heap_.pop_back();
  return ev;
}

double EventKernel::step_time(std::int64_t k) const noexcept {
  return static_cast<double>(k) * dt_;
}

std::int64_t EventKernel::step_at_or_after(double t) const {
  if (t <= 0.0) return 0;
  const double q = t / dt_;
  // Callers guard against out-of-window times; clamp instead of overflowing
  // the cast for the odd +huge that slips through.
  if (q >= 9.0e15) return std::numeric_limits<std::int64_t>::max() / 4;
  auto k = static_cast<std::int64_t>(std::ceil(q));
  while (static_cast<double>(k) * dt_ < t) ++k;
  while (k > 0 && static_cast<double>(k - 1) * dt_ >= t) --k;
  return k;
}

std::uint64_t EventKernel::cell_key(std::int64_t cx, std::int64_t cy) noexcept {
  // Each coordinate wrapped to 32 bits: x in the high half, y in the low.
  const auto ux = static_cast<std::uint32_t>(static_cast<std::int32_t>(cx));
  const auto uy = static_cast<std::uint32_t>(static_cast<std::int32_t>(cy));
  return (static_cast<std::uint64_t>(ux) << 32) | uy;
}

void EventKernel::move_cell(std::int32_t node, std::int64_t ncx, std::int64_t ncy) {
  const auto i = static_cast<std::size_t>(node);
  const std::uint64_t old_key = cell_key(cx_[i], cy_[i]);
  const auto cell_it = cells_.find(old_key);
  if (cell_it != cells_.end()) {
    std::vector<std::int32_t>& old_cell = cell_it->second;
    const auto it = std::find(old_cell.begin(), old_cell.end(), node);
    if (it != old_cell.end()) {
      *it = old_cell.back();
      old_cell.pop_back();
    }
    // Drop emptied cells: roaming nodes visit far more cells than they
    // occupy, and a table keyed by every-cell-ever-visited grows without
    // bound over a long run (cache-hostile at n >= 4000). Keeping the
    // table at ~n entries costs one tiny vector free per crossing.
    if (old_cell.empty()) cells_.erase(cell_it);
  }
  cx_[i] = ncx;
  cy_[i] = ncy;
  cells_[cell_key(ncx, ncy)].push_back(node);
}

double EventKernel::pair_dist2(std::int32_t a, std::int32_t b, double t) const {
  return w_.engine_.kinetic_position(a, t)
      .distance2_to(w_.engine_.kinetic_position(b, t));
}

void EventKernel::predict_pair(std::int32_t a, std::int32_t b,
                               std::int64_t min_step) {
  if (a == b) return;
  if (a > b) std::swap(a, b);
  const mobility::KineticSegment& sa = w_.engine_.kinetic_segment(a);
  const mobility::KineticSegment& sb = w_.engine_.kinetic_segment(b);
  // Predictions are valid only while BOTH segments hold; whichever node
  // advances first re-predicts the pair then.
  const double window_end = std::min(std::min(sa.t_end, sb.t_end), end_time_);
  const std::int64_t lo = std::max(min_step, from_ + 1);
  if (lo > to_ || step_time(lo) > window_end) return;
  std::int64_t hi = std::min(step_at_or_after(window_end), to_);
  if (step_time(hi) > window_end) --hi;
  if (lo > hi) return;

  const bool make = !w_.in_contact(a, b);
  // The analytic roots locate the transition; the final word on each grid
  // step is the same direct evaluation the pop-validation uses, so a
  // scheduled event can only fail validation if a segment changed.
  const auto scan = [&](std::int64_t k, std::int64_t limit) {
    for (; k <= limit; ++k) {
      if ((pair_dist2(a, b, step_time(k)) <= r2_) == make) {
        push({step_time(k), make ? kLinkUp : kLinkDown, a, b, 0});
        return true;
      }
    }
    return false;
  };

  // Relative motion from the later segment start: D(t) = p0 + v*(t - tref);
  // |D|^2 - range^2 is a quadratic with at most one in-range interval.
  const double tref = std::max(sa.t0, sb.t0);
  const geo::Vec2 p0 = (sa.origin + sa.vel * (tref - sa.t0)) -
                       (sb.origin + sb.vel * (tref - sb.t0));
  const geo::Vec2 v = sa.vel - sb.vel;
  const double qa = v.norm2();
  if (qa == 0.0) {
    // Constant relative position: whatever holds at `lo` holds at every
    // step, so a required state flip lands immediately (a couple of
    // evaluations absorb rounding wiggle across the formula variants).
    scan(lo, std::min(hi, lo + 2));
    return;
  }
  const double qb = 2.0 * p0.dot(v);
  const double qc = p0.norm2() - r2_;
  const double disc = qb * qb - 4.0 * qa * qc;
  if (disc <= 0.0) {
    // Never within range (at most a tangential graze): breaks fire at the
    // next step, makes never.
    if (!make) scan(lo, std::min(hi, lo + 3));
    return;
  }
  const double sq = std::sqrt(disc);
  const double t1 = tref + (-qb - sq) / (2.0 * qa);  // enters range
  const double t2 = tref + (-qb + sq) / (2.0 * qa);  // leaves range
  const double hi_time = step_time(hi);

  if (make) {
    if (t1 > hi_time || t2 < step_time(lo) - dt_) return;
    const std::int64_t k0 =
        std::max(lo, t1 <= 0.0 ? std::int64_t{0} : step_at_or_after(t1) - 1);
    const std::int64_t limit =
        t2 >= hi_time ? hi : std::min(hi, step_at_or_after(t2) + 1);
    scan(k0, limit);
    return;
  }
  // Break: out-of-range regions are before t1 and after t2.
  if (step_time(lo) < t1) {
    const std::int64_t k_end =
        t1 > hi_time ? hi : std::min(hi, step_at_or_after(t1));
    if (scan(lo, std::min(k_end, lo + 3))) return;
  }
  if (t2 > hi_time) return;  // still in range when a segment expires
  const std::int64_t k0 =
      std::max(lo, t2 <= 0.0 ? std::int64_t{0} : step_at_or_after(t2) - 1);
  scan(k0, hi);
}

void EventKernel::predict_neighborhood(std::int32_t node, std::int64_t min_step,
                                       bool only_greater) {
  const auto i = static_cast<std::size_t>(node);
  for (std::int64_t dy = -1; dy <= 1; ++dy) {
    for (std::int64_t dx = -1; dx <= 1; ++dx) {
      const auto it = cells_.find(cell_key(cx_[i] + dx, cy_[i] + dy));
      if (it == cells_.end()) continue;
      for (const std::int32_t other : it->second) {
        if (other == node) continue;
        if (only_greater && other < node) continue;
        predict_pair(node, other, min_step);
      }
    }
  }
}

void EventKernel::repredict_node(std::int32_t node, std::int64_t min_step) {
  predict_neighborhood(node, min_step, false);
  // Current contacts can drift more than one cell apart between grid steps;
  // their break predictions must not depend on cell adjacency.
  const auto i = static_cast<std::size_t>(node);
  for (const NodeIdx peer : w_.adjacency_[i].peers) {
    const auto p = static_cast<std::size_t>(peer);
    const std::int64_t ddx = cx_[p] - cx_[i];
    const std::int64_t ddy = cy_[p] - cy_[i];
    if (ddx >= -1 && ddx <= 1 && ddy >= -1 && ddy <= 1) continue;  // covered
    predict_pair(node, peer, min_step);
  }
}

void EventKernel::schedule_segment_end(std::int32_t node) {
  const mobility::KineticSegment& seg = w_.engine_.kinetic_segment(node);
  if (!(seg.t_end <= end_time_)) return;  // next run() rebuilds from lanes
  push({seg.t_end, kSegment, node, 0, serial_[static_cast<std::size_t>(node)]});
}

void EventKernel::schedule_cell_crossing(std::int32_t node) {
  const mobility::KineticSegment& seg = w_.engine_.kinetic_segment(node);
  if (seg.vel.x == 0.0 && seg.vel.y == 0.0) return;
  const auto i = static_cast<std::size_t>(node);
  double tx = kInf;
  double ty = kInf;
  if (seg.vel.x > 0.0) {
    tx = seg.t0 + (static_cast<double>(cx_[i] + 1) * cell_ - seg.origin.x) / seg.vel.x;
  } else if (seg.vel.x < 0.0) {
    tx = seg.t0 + (static_cast<double>(cx_[i]) * cell_ - seg.origin.x) / seg.vel.x;
  }
  if (seg.vel.y > 0.0) {
    ty = seg.t0 + (static_cast<double>(cy_[i] + 1) * cell_ - seg.origin.y) / seg.vel.y;
  } else if (seg.vel.y < 0.0) {
    ty = seg.t0 + (static_cast<double>(cy_[i]) * cell_ - seg.origin.y) / seg.vel.y;
  }
  double t = std::min(tx, ty);
  const int axis = tx <= ty ? 0 : 1;
  const int dir_up = (axis == 0 ? seg.vel.x : seg.vel.y) > 0.0 ? 1 : 0;
  // The believed cell can lag the closed form by an ulp; never schedule
  // into the past (the chain still terminates: each pop moves one cell).
  if (t < seg.t0) t = seg.t0;
  if (t >= seg.t_end || t > end_time_) return;
  push({t, kCellCross, node, axis << 1 | dir_up,
        serial_[static_cast<std::size_t>(node)]});
}

void EventKernel::schedule_traffic(std::int64_t min_step) {
  if (!w_.has_traffic_) return;
  const double nt = w_.traffic_->next_time();
  if (!(nt <= end_time_)) return;  // also rejects the +inf exhausted clock
  const std::int64_t k = std::max(step_at_or_after(nt), min_step);
  if (k > to_) return;
  push({step_time(k), kTraffic, 0, 0, 0});
}

void EventKernel::schedule_sweep(std::int64_t min_step) {
  const double target = static_cast<double>(w_.sweeps_done_ + 1) *
                        w_.config_.ttl_sweep_interval;
  if (target > end_time_) return;
  const std::int64_t k = std::max(step_at_or_after(target), min_step);
  if (k > to_) return;
  push({step_time(k), kTtlSweep, 0, 0, 0});
}

void EventKernel::ensure_tick(std::int64_t step) {
  // At most one transfer tick per grid step, mirroring the fixed-dt loop's
  // single progress_transfers() phase.
  if (step > to_ || step <= tick_pushed_for_) return;
  tick_pushed_for_ = step;
  push({step_time(step), kTransferTick, 0, 0, 0});
}

void EventKernel::on_segment(const Ev& ev) {
  const std::int32_t node = ev.a;
  const auto i = static_cast<std::size_t>(node);
  if (ev.serial != serial_[i]) return;  // superseded segment
  w_.engine_.kinetic_advance(node);
  ++serial_[i];
  schedule_segment_end(node);
  schedule_cell_crossing(node);
  repredict_node(node, std::max(step_at_or_after(ev.time), from_ + 1));
}

void EventKernel::on_cell_cross(const Ev& ev) {
  const std::int32_t node = ev.a;
  const auto i = static_cast<std::size_t>(node);
  if (ev.serial != serial_[i]) return;  // segment changed since scheduling
  const int axis = ev.b >> 1;
  const std::int64_t dir = (ev.b & 1) != 0 ? 1 : -1;
  move_cell(node, cx_[i] + (axis == 0 ? dir : 0), cy_[i] + (axis == 1 ? dir : 0));
  schedule_cell_crossing(node);
  // Entering a cell is the make-coverage hook: any pair that can come
  // within range shares a 3x3 neighborhood from the later entry onward.
  predict_neighborhood(node, std::max(step_at_or_after(ev.time), from_ + 1),
                       false);
}

void EventKernel::on_link_down(const Ev& ev) {
  if (!w_.in_contact(ev.a, ev.b)) return;                 // duplicate/stale
  if (pair_dist2(ev.a, ev.b, ev.time) <= r2_) return;     // stale prediction
  w_.now_ = ev.time;
  w_.step_count_ = step_at_or_after(ev.time);
  w_.link_down(ev.a, ev.b);
  // Within the current segment pair the quadratic has a single in-range
  // interval, so no re-make is possible until a segment changes — and that
  // change re-predicts.
}

void EventKernel::on_link_up(const Ev& ev) {
  if (w_.in_contact(ev.a, ev.b)) return;                  // duplicate/stale
  if (pair_dist2(ev.a, ev.b, ev.time) > r2_) return;      // stale prediction
  const std::int64_t k = step_at_or_after(ev.time);
  w_.now_ = ev.time;
  w_.step_count_ = k;
  w_.link_up(ev.a, ev.b);
  predict_pair(ev.a, ev.b, k + 1);  // schedule this contact's break
  // Router callbacks may have queued transfers; they receive bandwidth
  // this same step, like the fixed-dt progress phase after detection.
  if (!w_.active_slots_.empty()) ensure_tick(k);
}

void EventKernel::on_traffic(const Ev& ev) {
  const std::int64_t k = step_at_or_after(ev.time);
  w_.now_ = ev.time;
  w_.step_count_ = k;
  w_.generate_traffic();
  schedule_traffic(k + 1);
  if (!w_.active_slots_.empty()) ensure_tick(k);
}

void EventKernel::on_transfer_tick(const Ev& ev) {
  const std::int64_t k = step_at_or_after(ev.time);
  w_.now_ = ev.time;
  w_.step_count_ = k;
  w_.progress_transfers();
  if (!w_.active_slots_.empty()) ensure_tick(k + 1);
}

void EventKernel::on_ttl_sweep(const Ev& ev) {
  // The deadline is checked here rather than per event: sweeps are a few
  // per simulated minute, events can be millions.
  w_.check_deadline();
  const std::int64_t k = step_at_or_after(ev.time);
  w_.now_ = ev.time;
  w_.step_count_ = k;
  w_.sweep_expired();
  ++w_.sweeps_done_;
  for (auto& node : w_.nodes_) node.router->on_tick(w_.now_);
  schedule_sweep(k + 1);
  if (!w_.active_slots_.empty()) ensure_tick(k + 1);
}

void EventKernel::run(std::int64_t from_step, std::int64_t to_step) {
  from_ = from_step;
  to_ = to_step;
  end_time_ = step_time(to_);
  const double t0 = step_time(from_);
  mobility::MovementEngine& eng = w_.engine_;
  eng.kinetic_start(t0);

  const std::size_t n = eng.size();
  serial_.assign(n, 0);
  cx_.resize(n);
  cy_.resize(n);
  cells_.clear();
  heap_.clear();
  tick_pushed_for_ = -1;
  for (std::size_t i = 0; i < n; ++i) {
    const geo::Vec2 p = eng.position(static_cast<int>(i));
    cx_[i] = static_cast<std::int64_t>(std::floor(p.x * inv_cell_));
    cy_[i] = static_cast<std::int64_t>(std::floor(p.y * inv_cell_));
    cells_[cell_key(cx_[i], cy_[i])].push_back(static_cast<std::int32_t>(i));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto node = static_cast<std::int32_t>(i);
    schedule_segment_end(node);
    schedule_cell_crossing(node);
    // Every adjacent pair once (the greater-index filter dedups); this
    // covers carried-over contacts too — in-contact pairs are always
    // cell-adjacent at a grid time.
    predict_neighborhood(node, from_ + 1, /*only_greater=*/true);
  }
  // Transfers still queued from a previous run() on this world.
  if (!w_.active_slots_.empty()) ensure_tick(from_ + 1);
  schedule_traffic(from_ + 1);
  schedule_sweep(from_ + 1);

  while (!heap_.empty()) {
    const Ev ev = pop();
    assert(ev.time <= end_time_);
    switch (ev.kind) {
      case kSegment: on_segment(ev); break;
      case kCellCross: on_cell_cross(ev); break;
      case kLinkDown: on_link_down(ev); break;
      case kLinkUp: on_link_up(ev); break;
      case kTraffic: on_traffic(ev); break;
      case kTransferTick: on_transfer_tick(ev); break;
      case kTtlSweep: on_ttl_sweep(ev); break;
      default: assert(false); break;
    }
  }

  // Land exactly on the closing grid point and hand fixed-dt-compatible
  // state back: synced positions and a prev-pair snapshot for a later
  // step()'s contact diff.
  w_.step_count_ = to_;
  w_.now_ = end_time_;
  eng.kinetic_sync_positions(end_time_);
  w_.prev_pairs_.clear();
  for (const auto& conn : w_.conn_pool_) {
    if (conn.alive) w_.prev_pairs_.push_back(World::pair_key(conn.a, conn.b));
  }
  std::sort(w_.prev_pairs_.begin(), w_.prev_pairs_.end());
}

}  // namespace dtn::sim
