// Community-confined random waypoint: each node has a home rectangle (its
// community's district) and picks its next waypoint inside the home area
// with probability `home_prob`, otherwise anywhere in the world (a "roam"
// trip). Produces the high intra-community / low inter-community contact
// frequency asymmetry the CR protocol is designed for, independent of the
// bus map — used by examples/community_campus.cfg and CR ablations.
#pragma once

#include "geo/vec2.hpp"
#include "mobility/movement_model.hpp"

namespace dtn::mobility {

struct CommunityMovementParams {
  geo::Vec2 world_min{0.0, 0.0};
  geo::Vec2 world_max{2000.0, 2000.0};
  geo::Vec2 home_min{0.0, 0.0};
  geo::Vec2 home_max{500.0, 500.0};
  double home_prob = 0.85;  ///< probability the next waypoint is in-home
  double speed_min = 0.8;
  double speed_max = 1.8;
  double pause_min = 0.0;
  double pause_max = 30.0;
};

class CommunityMovement final : public MovementModel {
 public:
  explicit CommunityMovement(CommunityMovementParams params);

  void init(util::Pcg32 rng, double start_time) override;
  void step(double now, double dt) override;
  [[nodiscard]] geo::Vec2 position() const override { return pos_; }

  /// Parameter block (MovementEngine extracts it into an SoA lane).
  [[nodiscard]] const CommunityMovementParams& params() const noexcept { return params_; }

 private:
  void pick_waypoint();

  CommunityMovementParams params_;
  util::Pcg32 rng_;
  geo::Vec2 pos_;
  geo::Vec2 target_;
  double speed_ = 0.0;
  double pause_until_ = 0.0;
};

}  // namespace dtn::mobility
