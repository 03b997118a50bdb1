// Kinetic (event-driven) time advance for World::run().
//
// Between waypoint events every node moves linearly, so nothing about the
// contact graph can change except at analytically predictable instants.
// Instead of scanning all n nodes every step_dt, the kernel keeps a
// calendar (binary min-heap keyed by time, deterministic tie-break by
// event kind then node/pair key) of:
//
//   segment boundaries   — pause end / waypoint arrival per node
//   cell crossings       — a node's closed-form path leaving its grid cell
//   contact make/break   — a pair's |distance|^2 = range^2 crossing,
//                          quantized to the step grid
//   traffic injections   — first grid step at/after the generator's clock
//   transfer ticks       — per-step bandwidth budget while work is queued
//   TTL sweeps           — first grid step reaching the sweep boundary;
//                          the World's deadline is checked here
//
// and advances now_ event-to-event.
//
// Semantics contract: every OBSERVABLE action still happens at a grid time
// t_k = k * step_dt, exactly as the fixed-dt loop would apply it — contact
// state at step k is "distance at t_k <= range", traffic injects at the
// first step whose time reaches the generator clock, transfers progress
// with the same per-step byte budget, sweeps fire at the same steps, and
// same-step events apply in the fixed-dt phase order (movement, downs by
// pair key, ups by pair key, traffic, transfer progress, sweep). RNG
// streams are per node/entry, so drawing waypoint blocks at exact arrival
// times instead of inside the covering step consumes identical values.
// The one intentional divergence: positions come from the closed form
// origin + vel * (t - t0) instead of the fixed-dt path's per-step
// incremental accumulation, which differs by ~1 ulp per step. Metrics are
// therefore bit-identical unless a pair grazes the range threshold at a
// grid time within that noise (sim_event_kernel_test pins bit-identity
// across 12 protocols x 2 seeds; bench_world_step cross-checks the sparse
// workload).
//
// Candidate discovery: cell size == radio range, so two nodes in contact
// are always in Chebyshev-adjacent cells. Per-node integer cell
// coordinates are maintained by the cell-crossing events themselves (no
// per-step floor), and each segment change or cell entry (re)predicts the
// node against the 3x3 neighborhood — the later-moving node of any pair
// always sees the other, so every make has a scheduled event. Predictions
// are windowed to [now, min(segment ends)]; a stale event (its segments
// changed since prediction) simply fails validation on pop and is dropped,
// because whatever changed the segments already re-predicted.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geo/vec2.hpp"

namespace dtn::sim {

class World;

class EventKernel {
 public:
  explicit EventKernel(World& world);
  /// Advances the world across grid steps (from_step, to_step]. The world
  /// must be between runs (its movement lanes positioned at from_step).
  void run(std::int64_t from_step, std::int64_t to_step);

 private:
  /// Tie-break order within one timestamp == the fixed-dt phase order of
  /// one step (movement internals first, then downs, ups, traffic,
  /// transfer progress, sweep).
  enum Kind : std::uint32_t {
    kSegment = 0,       // a = node
    kCellCross = 1,     // a = node, b = axis<<1 | (dir > 0)
    kLinkDown = 2,      // a,b = pair (a < b)
    kLinkUp = 3,        // a,b = pair (a < b)
    kTraffic = 4,
    kTransferTick = 5,
    kTtlSweep = 6,
  };
  struct Ev {
    double time;
    std::uint32_t kind;
    std::int32_t a = 0;
    std::int32_t b = 0;
    std::uint32_t serial = 0;  ///< movement staleness guard (segment #)
  };

  static bool ev_after(const Ev& x, const Ev& y) noexcept;
  void push(const Ev& ev);
  Ev pop();

  [[nodiscard]] double step_time(std::int64_t k) const noexcept;
  /// Smallest k with k * step_dt >= t (ulp-safe).
  [[nodiscard]] std::int64_t step_at_or_after(double t) const;

  static std::uint64_t cell_key(std::int64_t cx, std::int64_t cy) noexcept;
  void move_cell(std::int32_t node, std::int64_t ncx, std::int64_t ncy);

  [[nodiscard]] double pair_dist2(std::int32_t a, std::int32_t b,
                                  double t) const;
  /// Schedules the pair's next contact transition at or after grid step
  /// min_step: a make (first step with dist <= range) when the pair is not
  /// in contact, a break (first step with dist > range) when it is.
  void predict_pair(std::int32_t a, std::int32_t b, std::int64_t min_step);
  /// predict_pair against every node in the 3x3 cell neighborhood.
  void predict_neighborhood(std::int32_t node, std::int64_t min_step,
                            bool only_greater);
  /// Full re-prediction after node's segment changed: neighborhood makes
  /// plus breaks for current contacts outside the neighborhood.
  void repredict_node(std::int32_t node, std::int64_t min_step);

  void schedule_segment_end(std::int32_t node);
  void schedule_cell_crossing(std::int32_t node);
  void schedule_traffic(std::int64_t min_step);
  void schedule_sweep(std::int64_t min_step);
  void ensure_tick(std::int64_t step);

  void on_segment(const Ev& ev);
  void on_cell_cross(const Ev& ev);
  void on_link_down(const Ev& ev);
  void on_link_up(const Ev& ev);
  void on_traffic(const Ev& ev);
  void on_transfer_tick(const Ev& ev);
  void on_ttl_sweep(const Ev& ev);

  World& w_;
  double dt_;
  double cell_;  ///< cell edge == radio range
  double r2_;
  double inv_cell_;
  std::int64_t from_ = 0;
  std::int64_t to_ = 0;
  double end_time_ = 0.0;

  std::vector<Ev> heap_;
  std::vector<std::uint32_t> serial_;   // per-node segment serial
  std::vector<std::int64_t> cx_, cy_;   // per-node believed cell coords
  std::unordered_map<std::uint64_t, std::vector<std::int32_t>> cells_;
  std::int64_t tick_pushed_for_ = -1;   // dedup: one tick event per step
};

}  // namespace dtn::sim
