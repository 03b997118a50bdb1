// Contact-schedule record and replay: a run that replays a recorded
// schedule in place of movement and contact detection must be the live
// run, link for link and metric for metric, and a schedule that does not
// fit the world must fail loudly instead of running a different
// simulation.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "../test_support.hpp"
#include "routing/epidemic.hpp"
#include "sim/world.hpp"

namespace dtn::sim {
namespace {

constexpr double kDuration = 300.0;  // 3 000 steps

/// Walkers, buses and two posts with Epidemic routers, small buffers and
/// brisk traffic, so links churn every few steps while transfers start,
/// finish, abort on link loss and buffers drop.
std::unique_ptr<World> build_world(std::uint64_t seed) {
  WorldConfig config = test::test_world_config(seed);
  config.buffer_bytes = 96 * 1024;
  auto world = std::make_unique<World>(config);
  mobility::RandomWaypointParams walk;
  walk.world_min = {0.0, 0.0};
  walk.world_max = {80.0, 60.0};
  walk.speed_min = 1.0;
  walk.speed_max = 6.0;
  for (int i = 0; i < 12; ++i) {
    world->add_node(walk, std::make_unique<routing::EpidemicRouter>());
  }
  const auto loop = std::make_shared<const geo::Polyline>(
      std::vector<geo::Vec2>{{0.0, 0.0}, {60.0, 0.0}, {60.0, 40.0}, {0.0, 40.0}}, true);
  const auto triangle = std::make_shared<const geo::Polyline>(
      std::vector<geo::Vec2>{{30.0, 0.0}, {90.0, 20.0}, {30.0, 40.0}}, true);
  mobility::BusParams bus;
  bus.stop_spacing = 50.0;
  bus.pause_min = 1.0;
  bus.pause_max = 4.0;
  for (int i = 0; i < 8; ++i) {
    world->add_node(i % 2 == 0 ? loop : triangle, bus,
                    std::make_unique<routing::EpidemicRouter>());
  }
  for (const geo::Vec2 pos : {geo::Vec2{20.0, 20.0}, geo::Vec2{60.0, 30.0}}) {
    mobility::StationaryNodeSpec post;
    post.pos = pos;
    world->add_node(post, std::make_unique<routing::EpidemicRouter>());
  }
  TrafficParams traffic;
  traffic.interval_min = 2.0;
  traffic.interval_max = 4.0;
  traffic.ttl = 120.0;
  world->set_traffic(traffic);
  return world;
}

ContactSchedule record(std::uint64_t seed) {
  auto world = build_world(seed);
  world->record_contacts();
  world->run(kDuration);
  return world->take_recorded_contacts();
}

void expect_same_metrics(const World& a, const World& b) {
  EXPECT_EQ(a.contact_events(), b.contact_events());
  EXPECT_EQ(a.active_connection_count(), b.active_connection_count());
  const Metrics& ma = a.metrics();
  const Metrics& mb = b.metrics();
  EXPECT_EQ(ma.created(), mb.created());
  EXPECT_EQ(ma.delivered(), mb.delivered());
  EXPECT_EQ(ma.relayed(), mb.relayed());
  EXPECT_EQ(ma.transfers_started(), mb.transfers_started());
  EXPECT_EQ(ma.transfers_aborted(), mb.transfers_aborted());
  EXPECT_EQ(ma.dropped(), mb.dropped());
  EXPECT_EQ(ma.expired(), mb.expired());
  EXPECT_EQ(ma.control_bytes(), mb.control_bytes());
  EXPECT_EQ(ma.latency_mean(), mb.latency_mean());
  EXPECT_EQ(ma.goodput(), mb.goodput());
  EXPECT_EQ(ma.hop_count_mean(), mb.hop_count_mean());
}

TEST(ContactReplay, ReplayedRunEqualsTheLiveRunStepByStep) {
  const auto schedule = std::make_shared<const ContactSchedule>(record(5));
  ASSERT_FALSE(schedule->ups.empty());
  ASSERT_FALSE(schedule->downs.empty());

  auto live = build_world(5);
  auto replayed = build_world(5);
  replayed->replay_contacts(schedule);
  const std::int64_t steps = World::step_count_for(kDuration, live->config().step_dt);
  for (std::int64_t s = 0; s < steps; ++s) {
    live->step();
    replayed->step();
    for (NodeIdx v = 0; v < live->node_count(); ++v) {
      ASSERT_EQ(live->neighbors_of(v), replayed->neighbors_of(v))
          << "node " << v << " at step " << s + 1;
    }
  }
  expect_same_metrics(*live, *replayed);
  EXPECT_GT(live->metrics().transfers_aborted(), 0) << "the world should abort transfers";
  EXPECT_GT(live->metrics().dropped(), 0) << "the world should drop messages";
  EXPECT_EQ(static_cast<std::size_t>(live->contact_events()), schedule->ups.size());
}

TEST(ContactReplay, RunReplaysTheWholeScheduleAndRecordsItAgain) {
  const auto schedule = std::make_shared<const ContactSchedule>(record(9));
  auto live = build_world(9);
  live->run(kDuration);
  auto replayed = build_world(9);
  replayed->replay_contacts(schedule);
  replayed->record_contacts();
  replayed->run(kDuration);
  expect_same_metrics(*live, *replayed);
  // The replayed run fires exactly the recorded calls, in their order.
  EXPECT_EQ(replayed->take_recorded_contacts(), *schedule);
}

TEST(ContactReplay, PositionsAreNotCurrentDuringAReplay) {
  auto world = build_world(5);
  EXPECT_NO_THROW((void)world->position_of(0));
  world->replay_contacts(std::make_shared<const ContactSchedule>());
  EXPECT_THROW((void)world->position_of(0), std::logic_error);
  world->reseed(6);  // ends the replay
  EXPECT_NO_THROW((void)world->position_of(0));
}

TEST(ContactReplay, ResetAndReseedEndRecordingAndReplay) {
  const auto schedule = std::make_shared<const ContactSchedule>(record(5));
  auto world = build_world(5);
  world->replay_contacts(schedule);
  world->record_contacts();
  world->reseed(5);
  world->run(kDuration);
  EXPECT_EQ(world->take_recorded_contacts(), ContactSchedule{});
  auto live = build_world(5);
  live->run(kDuration);
  expect_same_metrics(*live, *world);
}

/// Runs a fresh world on `schedule`; the replay must refuse it.
void expect_refused(const ContactSchedule& schedule, const char* what) {
  SCOPED_TRACE(what);
  auto world = build_world(5);
  world->replay_contacts(std::make_shared<const ContactSchedule>(schedule));
  EXPECT_THROW(world->run(kDuration), std::logic_error);
}

TEST(ContactReplay, ATamperedScheduleThrows) {
  const ContactSchedule good = record(5);
  ASSERT_GE(good.ups.size(), 2u);
  ASSERT_GE(good.downs.size(), 2u);
  {
    ContactSchedule bad = good;  // an up whose link is already up
    bad.ups.insert(bad.ups.begin() + 1, bad.ups[0]);
    bad.ups[1].step = bad.ups[0].step;
    expect_refused(bad, "duplicated up");
  }
  {
    ContactSchedule bad = good;  // a down whose link never came up
    const LinkEvent first_down = bad.downs.front();
    std::size_t up = 0;
    while (!(bad.ups[up].a == first_down.a && bad.ups[up].b == first_down.b)) ++up;
    bad.ups.erase(bad.ups.begin() + static_cast<std::ptrdiff_t>(up));
    expect_refused(bad, "missing up");
  }
  {
    ContactSchedule bad = good;  // the last down lies past the last step
    bad.downs.back().step = World::step_count_for(kDuration, 0.1) + 1;
    expect_refused(bad, "event past the last step");
  }
  {
    ContactSchedule bad = good;  // an event behind the step it is fired at
    bad.downs[1].step = bad.downs[0].step - 1;
    expect_refused(bad, "out of order");
  }
  {
    ContactSchedule bad = good;  // a node this world does not have
    bad.ups[0].b = 1000;
    expect_refused(bad, "unknown node");
  }
}

}  // namespace
}  // namespace dtn::sim
