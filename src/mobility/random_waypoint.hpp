// Classic random-waypoint mobility: pick a uniform destination in the world
// rectangle, travel at a uniformly drawn speed, pause, repeat. Used by
// examples/quickstart.cfg and as a non-structured control in ablations.
#pragma once

#include "geo/vec2.hpp"
#include "mobility/movement_model.hpp"

namespace dtn::mobility {

struct RandomWaypointParams {
  geo::Vec2 world_min{0.0, 0.0};
  geo::Vec2 world_max{1000.0, 1000.0};
  double speed_min = 0.5;   ///< m/s
  double speed_max = 1.5;   ///< m/s
  double pause_min = 0.0;   ///< s
  double pause_max = 0.0;   ///< s
};

class RandomWaypoint final : public MovementModel {
 public:
  explicit RandomWaypoint(RandomWaypointParams params);

  void init(util::Pcg32 rng, double start_time) override;
  void step(double now, double dt) override;
  [[nodiscard]] geo::Vec2 position() const override { return pos_; }

  /// Parameter block (MovementEngine extracts it into an SoA lane).
  [[nodiscard]] const RandomWaypointParams& params() const noexcept { return params_; }

 private:
  void pick_waypoint();

  RandomWaypointParams params_;
  util::Pcg32 rng_;
  geo::Vec2 pos_;
  geo::Vec2 target_;
  double speed_ = 0.0;
  double pause_until_ = 0.0;
};

}  // namespace dtn::mobility
