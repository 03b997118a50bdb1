#include "core/contact_history.hpp"

#include <gtest/gtest.h>

namespace dtn::core {
namespace {

TEST(ContactHistory, FirstContactRecordsNoInterval) {
  ContactHistory h(8);
  h.record_contact(1, 100.0);
  const PairHistory* ph = h.pair(1);
  ASSERT_NE(ph, nullptr);
  EXPECT_TRUE(ph->met);
  EXPECT_TRUE(ph->intervals.empty());
  EXPECT_DOUBLE_EQ(ph->last_contact, 100.0);
}

TEST(ContactHistory, IntervalsAccumulate) {
  ContactHistory h(8);
  h.record_contact(1, 10.0);
  h.record_contact(1, 25.0);
  h.record_contact(1, 55.0);
  const PairHistory* ph = h.pair(1);
  ASSERT_NE(ph, nullptr);
  ASSERT_EQ(ph->intervals.size(), 2u);
  EXPECT_DOUBLE_EQ(ph->intervals[0], 15.0);
  EXPECT_DOUBLE_EQ(ph->intervals[1], 30.0);
  EXPECT_DOUBLE_EQ(ph->average_interval(), 22.5);
}

TEST(ContactHistory, WindowEvictsOldest) {
  ContactHistory h(3);
  double t = 0.0;
  for (int i = 1; i <= 5; ++i) {
    t += i * 10.0;  // intervals 20, 30, 40, 50 after the first contact
    h.record_contact(1, t);
  }
  const PairHistory* ph = h.pair(1);
  ASSERT_EQ(ph->intervals.size(), 3u);
  EXPECT_DOUBLE_EQ(ph->intervals[0], 30.0);
  EXPECT_DOUBLE_EQ(ph->intervals[2], 50.0);
}

TEST(ContactHistory, CoincidentContactIgnored) {
  ContactHistory h(8);
  h.record_contact(1, 10.0);
  h.record_contact(1, 10.0);  // same instant
  EXPECT_TRUE(h.pair(1)->intervals.empty());
  h.record_contact(1, 5.0);  // out of order
  EXPECT_TRUE(h.pair(1)->intervals.empty());
  EXPECT_DOUBLE_EQ(h.pair(1)->last_contact, 10.0);
}

TEST(ContactHistory, SeparatePeersIndependent) {
  ContactHistory h(8);
  h.record_contact(1, 0.0);
  h.record_contact(2, 5.0);
  h.record_contact(1, 10.0);
  EXPECT_EQ(h.pair(1)->intervals.size(), 1u);
  EXPECT_TRUE(h.pair(2)->intervals.empty());
  EXPECT_EQ(h.pair_count(), 2u);
}

TEST(ContactHistory, UnknownPeer) {
  ContactHistory h(8);
  EXPECT_EQ(h.pair(99), nullptr);
}

TEST(ContactHistory, SortedIntervalsCacheTracksUpdates) {
  ContactHistory h(8);
  h.record_contact(1, 0.0);
  h.record_contact(1, 50.0);
  h.record_contact(1, 60.0);  // intervals: 50, 10
  const auto& sorted1 = h.pair(1)->sorted_intervals();
  ASSERT_EQ(sorted1.size(), 2u);
  EXPECT_DOUBLE_EQ(sorted1[0], 10.0);
  EXPECT_DOUBLE_EQ(sorted1[1], 50.0);
  h.record_contact(1, 65.0);  // interval 5 added
  const auto& sorted2 = h.pair(1)->sorted_intervals();
  ASSERT_EQ(sorted2.size(), 3u);
  EXPECT_DOUBLE_EQ(sorted2[0], 5.0);
}

TEST(ContactHistory, ZeroCapacityClampsToOne) {
  ContactHistory h(0);
  EXPECT_EQ(h.window_capacity(), 1u);
  h.record_contact(1, 0.0);
  h.record_contact(1, 10.0);
  h.record_contact(1, 30.0);
  EXPECT_EQ(h.pair(1)->intervals.size(), 1u);
  EXPECT_DOUBLE_EQ(h.pair(1)->intervals[0], 20.0);
}

}  // namespace
}  // namespace dtn::core
