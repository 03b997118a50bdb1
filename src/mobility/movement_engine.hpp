// Batched movement kernel: executes every node's trajectory out of
// structure-of-arrays state instead of one heap-allocated virtual
// MovementModel per node.
//
// The three hot models (random waypoint, community waypoint, bus) get
// dedicated lanes: their per-node state (position, target, speed, pause
// timer, route cursor) lives in dense parallel vectors that step_all()
// walks linearly — no virtual dispatch, no pointer chase into scattered
// model objects, and all positions land in one contiguous array the
// contact detector reads back. Waypoint/stop events pull their whole
// random block (pause, target, speed) from the node's stream in a single
// batched fill_doubles() call. Stationary infrastructure nodes get a
// zero-cost lane: their position is written once at init (fixed, or drawn
// per seed for uniform placement) and step_all() never visits them. Any
// other MovementModel (trace playback, test scripts, user models) runs
// unchanged in a fallback lane that keeps the object and calls its
// virtual step().
//
// The bus lane is lazy. step_all() advances every bus's route cursor
// (same arithmetic, same draws) and marks a bus whose cursor moved as
// pending; its route is evaluated (Polyline::point_at_hinted) only when a
// reader asks for it through position(), evaluate() or positions(), so a
// bus nobody looks at costs no evaluation, and a bus paused at a stop is
// never re-evaluated. Every node also has an odometer, the distance
// travelled along its path: a bus's route cursor, NaN for every other lane
// (those keep their position as state). A chord is never longer than its
// arc, so an odometer's advance bounds how far the node moved;
// sim/world.hpp uses that to skip evaluating buses that cannot have
// strayed far from their anchors.
//
// Equivalence contract: for the three lane models the kernel performs the
// exact arithmetic of the heap model classes (mobility/random_waypoint.cpp,
// community_movement.cpp, bus_movement.cpp) in the exact stream order, so
// trajectories are bit-identical to stepping those objects, however many
// steps pass between two reads of a bus, since point_at_hinted() returns
// the same point whatever hint it starts from (sim_movement_engine_test
// enforces both). The classes stay as the reference model and as the
// public MovementModel form that add() unpacks.
//
// clear() drops all nodes but retains every lane's capacity, so a World
// rebuilt across sweep seeds re-registers its nodes without allocating.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "geo/polyline.hpp"
#include "geo/vec2.hpp"
#include "mobility/bus_movement.hpp"
#include "mobility/community_movement.hpp"
#include "mobility/movement_model.hpp"
#include "mobility/random_waypoint.hpp"
#include "mobility/stationary.hpp"
#include "util/rng.hpp"

namespace dtn::mobility {

/// One closed-form trajectory piece for the kinetic event kernel:
/// position(t) = origin + vel * (t - t0), valid on [t0, t_end]. Pause
/// phases (and stationary nodes) carry vel == {0,0}; a node frozen forever
/// (stationary, or waypoint speed <= 0) has t_end == +infinity and is
/// never advanced.
struct KineticSegment {
  geo::Vec2 origin;
  geo::Vec2 vel;
  double t0 = 0.0;
  double t_end = 0.0;
  bool paused = false;  ///< waiting at a waypoint (next phase: travel)
};

class MovementEngine {
 public:
  /// Registers node `size()` with an explicit lane; returns the node index.
  int add_waypoint(const RandomWaypointParams& params);
  int add_community(const CommunityMovementParams& params);
  int add_bus(std::shared_ptr<const geo::Polyline> route, const BusParams& params);
  /// Zero-cost lane for infrastructure nodes: position set at init (fixed,
  /// or drawn per seed for uniform placement), never stepped.
  int add_stationary(const StationaryNodeSpec& spec);
  /// Fallback lane: keeps the model object, steps it virtually.
  int add_custom(MovementModelPtr model);
  /// Routes known model types (RandomWaypoint / CommunityMovement /
  /// BusMovement / Stationary) into their lanes,
  /// extracting their parameters and discarding the object; anything else
  /// goes to the custom lane.
  int add(MovementModelPtr model);

  /// (Re)initializes node `node`'s trajectory from its movement stream at
  /// `start_time` — same draws, same order as the legacy model's init().
  /// Called once after add_*() and again on every World reseed.
  void init_node(int node, util::Pcg32 rng, double start_time);

  /// Advances every trajectory from `now` to `now + dt`. A bus whose
  /// cursor moved is left pending: its route is evaluated on the next read.
  void step_all(double now, double dt);

  /// All node positions, indexed by node; evaluates every pending bus
  /// first. Positions are a memo of the lanes' state, so reading one
  /// through a const engine fills it in: a const engine is not safe to
  /// read from two threads at once.
  [[nodiscard]] const std::vector<geo::Vec2>& positions() const;
  /// One node's position, computed from its route if it is pending. It is
  /// not stored, so an outside reader (a test, World::position_of) leaves
  /// last_positions() as the contact detector left it. Bit-identical to
  /// evaluating every bus on every step: a bus's position is a function of
  /// its cursor alone.
  [[nodiscard]] geo::Vec2 position(int node) const {
    const auto i = static_cast<std::size_t>(node);
    return pending_[i] != 0 ? route_point(i) : pos_[i];
  }
  /// Evaluates `node`'s route into last_positions() if it is pending.
  void evaluate(int node) const {
    const auto i = static_cast<std::size_t>(node);
    if (pending_[i] != 0) evaluate_route(i);
  }
  /// Positions as last evaluated, evaluating nothing: exact for every node
  /// but a pending bus, whose entry is where it was at its last
  /// evaluation. For a reader that evaluates what it needs first
  /// (sim::World's contact detection), so that nodes that are never
  /// pending cost it no check.
  [[nodiscard]] const std::vector<geo::Vec2>& last_positions() const noexcept {
    return pos_;
  }
  /// The nodes that can be pending (the bus lane's), in lane order.
  [[nodiscard]] const std::vector<std::int32_t>& lazy_nodes() const noexcept {
    return bus_node_;
  }
  /// Per-node distance travelled along the node's path, indexed by node:
  /// a bus's route cursor, NaN ("no bound, read the position") for every
  /// other lane. |position(now) - position(then)| <= odometer(now) -
  /// odometer(then), up to rounding, until rebase_count() changes.
  [[nodiscard]] const std::vector<double>& odometers() const noexcept { return odo_; }
  /// Times, since construction, a bus cursor was rebased by whole route
  /// lengths (past 1e12 m). A rebase makes the cursor jump backwards, so
  /// an odometer difference that spans one bounds nothing.
  [[nodiscard]] std::uint64_t rebase_count() const noexcept { return rebases_; }

  [[nodiscard]] std::size_t size() const noexcept { return pos_.size(); }

  // ---- kinetic (event-driven) trajectory interface ----
  // Alternative to step_all() for the sim/event_kernel.hpp calendar: the
  // engine exposes each node's current linear segment and advances nodes
  // segment-to-segment instead of dt-by-dt. Waypoint arrivals perform the
  // exact batched draw block of the fixed-dt kernel in the same per-node
  // stream order, so the RNG contract cannot fork between the two paths
  // (mobility_kinetic_segment_test pins this).

  /// True when every node lives in a closed-form lane (waypoint,
  /// community, stationary). Bus and custom nodes have no linear-segment
  /// form, so worlds containing them must step fixed-dt.
  [[nodiscard]] bool kinetic_capable() const noexcept {
    return bus_node_.empty() && cust_node_.empty();
  }
  /// Builds every node's initial segment at time `t` from the lane state
  /// left by init_node() (or by a previous run). Requires kinetic_capable().
  void kinetic_start(double t);
  [[nodiscard]] const KineticSegment& kinetic_segment(int node) const {
    return kin_seg_[static_cast<std::size_t>(node)];
  }
  /// Crosses the node's segment boundary at its t_end: pause end launches
  /// travel toward the stored waypoint; arrival lands exactly on the
  /// target, draws the next (pause, [home,] target, speed) block, and
  /// opens the pause segment. Returns the new segment.
  const KineticSegment& kinetic_advance(int node);
  /// Closed-form position of `node` at time t (t within its segment).
  [[nodiscard]] geo::Vec2 kinetic_position(int node, double t) const {
    const KineticSegment& seg = kin_seg_[static_cast<std::size_t>(node)];
    return seg.origin + seg.vel * (t - seg.t0);
  }
  /// Writes every node's closed-form position at time t back into the
  /// positions() array (hand-off to the fixed-dt path after a kinetic run).
  void kinetic_sync_positions(double t);

  /// Drops every node, retaining lane capacity (custom-lane model objects
  /// are the only thing freed).
  void clear();

 private:
  enum class Kind : std::uint8_t { kWaypoint, kCommunity, kBus, kStationary, kCustom };

  /// Shared waypoint-lane parameters. `community == true` adds the
  /// home-rectangle Bernoulli pick (CommunityMovement); otherwise the home
  /// fields are unused and every draw targets the world rectangle.
  struct WpSpec {
    geo::Vec2 world_min, world_max;
    geo::Vec2 home_min, home_max;
    double home_prob = 0.0;
    double speed_min = 0.0, speed_max = 0.0;
    double pause_min = 0.0, pause_max = 0.0;
    bool community = false;
    std::uint8_t arrival_draws = 4;  ///< doubles consumed per waypoint event
  };

  /// One waypoint pick decoded from pre-drawn uniforms starting at u[j]:
  /// optional home-rectangle Bernoulli gate, then target.x, target.y,
  /// speed — the single definition of the legacy pick_waypoint() draw
  /// block, shared by lane init and arrival events so the RNG-stream
  /// contract cannot fork between them.
  struct WpPick {
    geo::Vec2 target;
    double speed;
  };
  static WpPick pick_waypoint(const WpSpec& spec, const double* u, std::size_t j);

  /// Appends node `size()` to the per-node vectors; returns its index.
  int push_node(Kind kind, std::size_t lane, geo::Vec2 pos = {});
  void init_waypoint(std::size_t lane, int node, double start_time);
  void init_bus(std::size_t lane, int node, double start_time);
  void step_waypoints(double now, double dt);
  void step_buses(double now, double dt);
  /// Bus node `i`'s route at its cursor.
  [[nodiscard]] geo::Vec2 route_point(std::size_t i) const;
  /// Evaluates pending bus node `i`'s route at its cursor into pos_.
  void evaluate_route(std::size_t i) const;
  /// Opens a travel segment from seg.origin toward the lane's stored
  /// waypoint at time t (shared by kinetic_start and kinetic_advance).
  void kinetic_begin_travel(KineticSegment& seg, std::size_t lane, double t);

  // ---- per-node (index == node id) ----
  mutable std::vector<geo::Vec2> pos_;          ///< memo for pending buses
  mutable std::vector<std::uint8_t> pending_;   ///< 1: bus moved, pos_ stale
  std::vector<double> odo_;                     ///< see odometers()
  std::vector<Kind> kind_;
  std::vector<std::uint32_t> lane_;

  // ---- waypoint + community lanes ----
  std::vector<std::int32_t> wp_node_;
  std::vector<WpSpec> wp_spec_;
  std::vector<geo::Vec2> wp_target_;
  std::vector<double> wp_speed_;
  std::vector<double> wp_pause_until_;
  std::vector<util::Pcg32> wp_rng_;

  // ---- bus lanes ----
  std::vector<std::int32_t> bus_node_;
  std::vector<std::shared_ptr<const geo::Polyline>> bus_route_;
  std::vector<BusParams> bus_params_;
  std::vector<double> bus_cursor_;
  std::vector<double> bus_next_stop_;
  std::vector<double> bus_speed_;
  std::vector<double> bus_pause_until_;
  mutable std::vector<std::uint32_t> bus_seg_hint_;  ///< point_at_hinted() cache
  std::vector<util::Pcg32> bus_rng_;
  std::uint64_t rebases_ = 0;  ///< see rebase_count(); never reset

  // ---- stationary lane (never stepped) ----
  std::vector<StationaryNodeSpec> st_spec_;

  // ---- custom lane ----
  std::vector<std::int32_t> cust_node_;
  std::vector<MovementModelPtr> cust_model_;

  // ---- kinetic segments (per node; valid after kinetic_start) ----
  std::vector<KineticSegment> kin_seg_;
};

}  // namespace dtn::mobility
