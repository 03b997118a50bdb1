#include "core/community_detection.hpp"

#include <gtest/gtest.h>

namespace dtn::core {
namespace {

TEST(ContactCountGraph, RecordsSymmetrically) {
  ContactCountGraph g(4);
  g.record(0, 1);
  g.record(1, 0);
  g.record(0, 1, 3);
  EXPECT_EQ(g.count(0, 1), 5);
  EXPECT_EQ(g.count(1, 0), 5);
  EXPECT_EQ(g.count(2, 3), 0);
}

TEST(ContactCountGraph, SelfContactsIgnored) {
  ContactCountGraph g(3);
  g.record(1, 1, 10);
  EXPECT_EQ(g.count(1, 1), 0);
}

TEST(DetectCommunities, TwoCliquesSeparate) {
  // Nodes {0,1,2} tightly connected, {3,4} tightly connected, weak bridge.
  ContactCountGraph g(5);
  for (const auto& [a, b] : {std::pair{0, 1}, {0, 2}, {1, 2}, {3, 4}}) {
    g.record(a, b, 10);
  }
  g.record(2, 3, 1);  // below threshold
  DetectionParams params;
  params.familiar_threshold = 3;
  const CommunityTable table = detect_communities(g, params);
  EXPECT_EQ(table.community_count(), 2);
  EXPECT_TRUE(table.same_community(0, 1));
  EXPECT_TRUE(table.same_community(0, 2));
  EXPECT_TRUE(table.same_community(3, 4));
  EXPECT_FALSE(table.same_community(2, 3));
}

TEST(DetectCommunities, StrongBridgeMerges) {
  ContactCountGraph g(4);
  g.record(0, 1, 10);
  g.record(2, 3, 10);
  g.record(1, 2, 10);  // strong bridge: all one community
  const CommunityTable table = detect_communities(g, DetectionParams{3});
  EXPECT_EQ(table.community_count(), 1);
}

TEST(DetectCommunities, IsolatedNodesAreSingletons) {
  ContactCountGraph g(3);
  g.record(0, 1, 10);
  const CommunityTable table = detect_communities(g, DetectionParams{3});
  EXPECT_EQ(table.community_count(), 2);
  EXPECT_TRUE(table.same_community(0, 1));
  EXPECT_FALSE(table.same_community(0, 2));
  EXPECT_EQ(table.members(table.community_of(2)).size(), 1u);
}

TEST(DetectCommunities, DenseCommunityIds) {
  ContactCountGraph g(6);
  g.record(4, 5, 10);
  const CommunityTable table = detect_communities(g, DetectionParams{3});
  // Ids must be dense 0..k-1 regardless of which nodes are grouped.
  for (int v = 0; v < 6; ++v) {
    EXPECT_GE(table.community_of(v), 0);
    EXPECT_LT(table.community_of(v), table.community_count());
  }
}

}  // namespace
}  // namespace dtn::core
