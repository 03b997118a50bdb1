#include "sim/metrics.hpp"

#include <gtest/gtest.h>

#include "../test_support.hpp"

namespace dtn::sim {
namespace {

using test::make_message;

TEST(Metrics, FreshMetricsAreZero) {
  const Metrics m;
  EXPECT_EQ(m.created(), 0);
  EXPECT_EQ(m.delivered(), 0);
  EXPECT_EQ(m.relayed(), 0);
  EXPECT_DOUBLE_EQ(m.delivery_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(m.goodput(), 0.0);
  EXPECT_DOUBLE_EQ(m.latency_mean(), 0.0);
}

TEST(Metrics, DeliveryRatio) {
  Metrics m;
  for (MsgId id = 0; id < 4; ++id) m.on_created();
  m.on_delivered(make_message(0, 0, 1, 0.0), 10.0, 1);
  m.on_delivered(make_message(1, 0, 1, 0.0), 20.0, 2);
  EXPECT_DOUBLE_EQ(m.delivery_ratio(), 0.5);
}

TEST(Metrics, DuplicateDeliveryIgnored) {
  Metrics m;
  m.on_created();
  m.on_delivered(make_message(0, 0, 1, 0.0), 10.0, 1);
  m.on_delivered(make_message(0, 0, 1, 0.0), 99.0, 5);
  EXPECT_EQ(m.delivered(), 1);
  EXPECT_DOUBLE_EQ(m.latency_mean(), 10.0);  // first arrival's latency kept
  EXPECT_TRUE(m.is_delivered(0));
  EXPECT_FALSE(m.is_delivered(1));
}

TEST(Metrics, LatencyIsDeliveryMinusCreation) {
  Metrics m;
  m.on_created();
  m.on_delivered(make_message(0, 0, 1, 100.0), 250.0, 3);
  EXPECT_DOUBLE_EQ(m.latency_mean(), 150.0);
  EXPECT_DOUBLE_EQ(m.hop_count_mean(), 3.0);
}

TEST(Metrics, GoodputIsDeliveredOverRelayed) {
  Metrics m;
  m.on_created();
  for (int i = 0; i < 10; ++i) m.on_relayed();
  m.on_delivered(make_message(0, 0, 1, 0.0), 5.0, 1);
  EXPECT_DOUBLE_EQ(m.goodput(), 0.1);
}

TEST(Metrics, CountersAccumulate) {
  Metrics m;
  m.on_transfer_started();
  m.on_transfer_started();
  m.on_transfer_aborted();
  m.on_dropped();
  m.on_expired();
  m.add_control_bytes(512);
  m.add_control_bytes(488);
  EXPECT_EQ(m.transfers_started(), 2);
  EXPECT_EQ(m.transfers_aborted(), 1);
  EXPECT_EQ(m.dropped(), 1);
  EXPECT_EQ(m.expired(), 1);
  EXPECT_EQ(m.control_bytes(), 1000);
}

TEST(Metrics, LatencyStatsExposeSpread) {
  Metrics m;
  for (MsgId id = 0; id < 3; ++id) {
    m.on_created();
    m.on_delivered(make_message(id, 0, 1, 0.0), 10.0 * (id + 1), 1);
  }
  EXPECT_DOUBLE_EQ(m.latency_stats().min(), 10.0);
  EXPECT_DOUBLE_EQ(m.latency_stats().max(), 30.0);
  EXPECT_DOUBLE_EQ(m.latency_stats().mean(), 20.0);
}

}  // namespace
}  // namespace dtn::sim
