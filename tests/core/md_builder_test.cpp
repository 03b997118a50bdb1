#include "core/md_builder.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/estimators.hpp"
#include "util/rng.hpp"

namespace dtn::core {
namespace {

TEST(MdBuilder, OwnRowUsesTheorem2ForeignRowsUseMi) {
  const NodeIdx n = 3;
  MiMatrix mi(n);
  mi.set_entry(1, 2, 77.0, 1.0);
  mi.set_entry(0, 1, 500.0, 1.0);  // will be overridden by Theorem 2 row

  ContactHistory h(8);
  h.record_contact(1, 0.0);
  h.record_contact(1, 100.0);  // interval {100}, t0 = 100

  // At t = 130 (elapsed 30): EMD = 100 - 30 = 70 for own row entry (0,1).
  const auto md = build_md(mi, h, 0, 130.0);
  EXPECT_NEAR(md[0 * n + 1], 70.0, 1e-12);
  EXPECT_DOUBLE_EQ(md[1 * n + 2], 77.0);
  EXPECT_TRUE(std::isinf(md[0 * n + 2]));  // never met node 2
  EXPECT_DOUBLE_EQ(md[0 * n + 0], 0.0);
  EXPECT_DOUBLE_EQ(md[2 * n + 2], 0.0);
}

TEST(MdBuilder, MemdUsesTwoHopPathWhenCheaper) {
  const NodeIdx n = 3;
  MiMatrix mi(n);
  mi.set_entry(1, 2, 10.0, 1.0);  // relay 1 meets destination 2 often

  ContactHistory h(8);
  // Own history: meet node 1 every 20 s; node 2 every 1000 s.
  h.record_contact(1, 0.0);
  h.record_contact(1, 20.0);
  h.record_contact(2, 0.0);
  h.record_contact(2, 1000.0);

  const auto md = build_md(mi, h, 0, 1000.0);
  const auto r = dijkstra_dense(md, n, 0);
  // Via node 1: EMD(0,1) + I(1,2) = 20 + 10 = 30 beats direct 1000.
  EXPECT_NEAR(r.dist[2], 30.0, 1e-9);
}

TEST(MdBuilder, IntraSubIndexRestrictsToMembers) {
  const CommunityTable table({0, 0, 0, 1});  // community 0 = {0,1,2}
  MiMatrix mi(4);
  mi.set_entry(1, 2, 40.0, 1.0);
  mi.set_entry(1, 3, 5.0, 1.0);  // edge to outsider 3 must not appear

  ContactHistory h(8);
  h.record_contact(1, 0.0);
  h.record_contact(1, 30.0);

  const auto md = build_md_intra(mi, h, table, 0, 0, 30.0);
  const auto m = static_cast<NodeIdx>(table.members(0).size());
  ASSERT_EQ(m, 3);
  // Sub-index order is {0,1,2}. Own row entry (0 -> 1) from Theorem 2:
  // interval {30}, elapsed 0 -> 30.
  EXPECT_NEAR(md[0 * m + 1], 30.0, 1e-12);
  EXPECT_DOUBLE_EQ(md[1 * m + 2], 40.0);
  // No path can use node 3; matrix simply has no such index.
  EXPECT_EQ(md.size(), static_cast<std::size_t>(m) * static_cast<std::size_t>(m));
}

/// What a MEMD query must leave as it found it.
struct MiSnapshot {
  std::vector<double> storage;
  std::vector<double> row_times;
  std::uint64_t version;
};

MiSnapshot snapshot(const MiMatrix& mi) {
  MiSnapshot s{{mi.storage().begin(), mi.storage().end()}, {}, mi.version()};
  for (NodeIdx i = 0; i < mi.size(); ++i) s.row_times.push_back(mi.row_time(i));
  return s;
}

bool unchanged(const MiSnapshot& before, const MiMatrix& mi) {
  const MiSnapshot now = snapshot(mi);
  return std::memcmp(before.storage.data(), now.storage.data(),
                     before.storage.size() * sizeof(double)) == 0 &&
         std::memcmp(before.row_times.data(), now.row_times.data(),
                     before.row_times.size() * sizeof(double)) == 0 &&
         before.version == now.version;
}

// A seeded run of what an EER router does to its MI and history between
// queries: own-row and foreign-row set_entry, merges from a second matrix,
// contacts, clock steps of at least one bucket, and one Router::reset in the
// middle. After every step, each destination's MEMD must carry the bits of
// Dijkstra over the reference MD, and no query may leave a trace in the MI.
TEST(MemdCache, ReturnsSameAsDirectComputation) {
  constexpr NodeIdx n = 40;
  constexpr NodeIdx self = 7;
  constexpr int kSteps = 600;
  util::Pcg32 rng(2011, 19);
  const auto any_node = [&] { return static_cast<NodeIdx>(rng.uniform_int(0, n - 1)); };
  const auto other_node = [&] {
    const NodeIdx j = any_node();
    return j == self ? static_cast<NodeIdx>((j + 1) % n) : j;
  };
  MiMatrix mi(n);
  MiMatrix gossip(n);  // the matrix peers merge in from
  ContactHistory history(8);
  MemdCache cache;
  double t = 0.0;
  int relayed = 0;  // finite MEMDs to nodes self has no interval with
  for (int step = 0; step < kSteps; ++step) {
    if (step == kSteps / 2) {
      mi.reset();
      history.clear();
      cache.reset();
    } else {
      switch (rng.uniform_int(0, 9)) {
        case 0:
          mi.set_entry(self, other_node(), rng.uniform(5.0, 500.0), t);
          break;
        case 1:
        case 2:
          mi.set_entry(other_node(), any_node(), rng.uniform(5.0, 500.0), t);
          break;
        case 3:
          gossip.set_entry(any_node(), any_node(), rng.uniform(5.0, 500.0),
                           t + rng.uniform(0.0, 60.0));
          mi.merge_from(gossip);
          break;
        case 4:
        case 5:
        case 6: {  // a contact, recorded as EerRouter::record_meeting does
          const NodeIdx peer = other_node();
          history.record_contact(peer, t);
          const PairHistory* ph = history.pair(peer);
          if (!ph->intervals.empty()) mi.set_entry(self, peer, ph->average_interval(), t);
          break;
        }
        default:
          t += kMemdTimeBucket * rng.uniform(1.0, 6.0);
          break;
      }
    }
    const std::vector<double> reference =
        dijkstra_dense(build_md(mi, history, self, t), n, self).dist;
    const MiSnapshot before = snapshot(mi);
    for (NodeIdx dst = 0; dst < n; ++dst) {
      const double got = cache.memd(mi, history, self, dst, t);
      const double want = reference[static_cast<std::size_t>(dst)];
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
          << "step " << step << " dst " << dst << ": " << got << " vs " << want;
      ASSERT_TRUE(unchanged(before, mi)) << "step " << step << " dst " << dst;
      const PairHistory* ph = history.pair(dst);
      if (dst != self && std::isfinite(want) && (ph == nullptr || ph->intervals.empty())) {
        ++relayed;
      }
    }
  }
  EXPECT_GT(relayed, 0) << "the sequence never routed through a foreign row";
}

TEST(MemdCache, InvalidatesOnMiChange) {
  const NodeIdx n = 3;
  MiMatrix mi(n);
  ContactHistory h(8);
  h.record_contact(1, 0.0);
  h.record_contact(1, 10.0);

  MemdCache cache;
  const double before = cache.memd(mi, h, 0, 2, 10.0);
  EXPECT_TRUE(std::isinf(before));
  mi.set_entry(1, 2, 5.0, 11.0);  // now 0 -> 1 -> 2 exists
  const double after = cache.memd(mi, h, 0, 2, 10.0);
  EXPECT_FALSE(std::isinf(after));
}

TEST(MemdCache, InvalidatesWhenTimeBucketAdvances) {
  const NodeIdx n = 2;
  MiMatrix mi(n);
  ContactHistory h(8);
  h.record_contact(1, 0.0);
  h.record_contact(1, 100.0);  // interval {100}, t0=100

  MemdCache cache;
  const double at_100 = cache.memd(mi, h, 0, 1, 100.0);
  const double at_150 = cache.memd(mi, h, 0, 1, 150.0);
  EXPECT_NEAR(at_100, 100.0, 1e-9);
  EXPECT_NEAR(at_150, 50.0, 1e-9);  // Theorem 2: elapsed time subtracts
  // Within one bucket the cached value stands.
  EXPECT_EQ(cache.memd(mi, h, 0, 1, 150.0 + 0.5 * kMemdTimeBucket), at_150);
}

TEST(MemdCache, SelfDistanceZero) {
  MiMatrix mi(3);
  ContactHistory h(8);
  MemdCache cache;
  EXPECT_DOUBLE_EQ(cache.memd(mi, h, 1, 1, 0.0), 0.0);
}

}  // namespace
}  // namespace dtn::core
