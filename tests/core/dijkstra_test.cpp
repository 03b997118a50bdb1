#include "core/dijkstra.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/rng.hpp"

namespace dtn::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> matrix(NodeIdx n, std::initializer_list<std::tuple<int, int, double>> edges,
                           bool symmetric = true) {
  std::vector<double> m(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), kInf);
  for (NodeIdx i = 0; i < n; ++i) m[static_cast<std::size_t>(i) * n + i] = 0.0;
  for (const auto& [a, b, w] : edges) {
    m[static_cast<std::size_t>(a) * n + b] = w;
    if (symmetric) m[static_cast<std::size_t>(b) * n + a] = w;
  }
  return m;
}

TEST(Dijkstra, TrivialSelfDistance) {
  const auto m = matrix(2, {{0, 1, 5.0}});
  const auto r = dijkstra_dense(m, 2, 0);
  EXPECT_DOUBLE_EQ(r.dist[0], 0.0);
  EXPECT_DOUBLE_EQ(r.dist[1], 5.0);
}

TEST(Dijkstra, PrefersMultiHopWhenCheaper) {
  // 0-1 = 10 direct; 0-2-1 = 3 + 4 = 7.
  const auto m = matrix(3, {{0, 1, 10.0}, {0, 2, 3.0}, {2, 1, 4.0}});
  const auto r = dijkstra_dense(m, 3, 0);
  EXPECT_DOUBLE_EQ(r.dist[1], 7.0);
  EXPECT_EQ(extract_path(r, 0, 1), (std::vector<NodeIdx>{0, 2, 1}));
}

TEST(Dijkstra, UnreachableStaysInfinite) {
  const auto m = matrix(3, {{0, 1, 1.0}});
  const auto r = dijkstra_dense(m, 3, 0);
  EXPECT_TRUE(std::isinf(r.dist[2]));
  EXPECT_FALSE(r.reachable(2));
  EXPECT_TRUE(extract_path(r, 0, 2).empty());
}

TEST(Dijkstra, AsymmetricEdges) {
  // Directed: 0->1 cheap, 1->0 expensive.
  auto m = matrix(2, {}, false);
  m[0 * 2 + 1] = 1.0;
  m[1 * 2 + 0] = 100.0;
  const auto fwd = dijkstra_dense(m, 2, 0);
  const auto bwd = dijkstra_dense(m, 2, 1);
  EXPECT_DOUBLE_EQ(fwd.dist[1], 1.0);
  EXPECT_DOUBLE_EQ(bwd.dist[0], 100.0);
}

TEST(Dijkstra, NegativeWeightsClampedToZero) {
  auto m = matrix(2, {{0, 1, -5.0}});
  const auto r = dijkstra_dense(m, 2, 0);
  EXPECT_DOUBLE_EQ(r.dist[1], 0.0);
}

TEST(Dijkstra, PathExtractionEndpoints) {
  const auto m = matrix(4, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}});
  const auto r = dijkstra_dense(m, 4, 0);
  EXPECT_EQ(extract_path(r, 0, 0), (std::vector<NodeIdx>{0}));
  EXPECT_EQ(extract_path(r, 0, 3), (std::vector<NodeIdx>{0, 1, 2, 3}));
}

// Floyd-Warshall reference for the property test.
std::vector<double> floyd_warshall(std::vector<double> m, NodeIdx n) {
  for (NodeIdx k = 0; k < n; ++k) {
    for (NodeIdx i = 0; i < n; ++i) {
      for (NodeIdx j = 0; j < n; ++j) {
        const double via = m[static_cast<std::size_t>(i) * n + k] +
                           m[static_cast<std::size_t>(k) * n + j];
        double& cur = m[static_cast<std::size_t>(i) * n + j];
        if (via < cur) cur = via;
      }
    }
  }
  return m;
}

class DijkstraRandomGraphTest : public ::testing::TestWithParam<int> {};

TEST_P(DijkstraRandomGraphTest, MatchesFloydWarshall) {
  const NodeIdx n = static_cast<NodeIdx>(GetParam());
  util::Pcg32 rng(55, static_cast<std::uint64_t>(n));
  std::vector<double> m(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), kInf);
  for (NodeIdx i = 0; i < n; ++i) {
    m[static_cast<std::size_t>(i) * n + i] = 0.0;
    for (NodeIdx j = 0; j < n; ++j) {
      if (i != j && rng.bernoulli(0.35)) {
        m[static_cast<std::size_t>(i) * n + j] = rng.uniform(1.0, 100.0);
      }
    }
  }
  const auto reference = floyd_warshall(m, n);
  for (NodeIdx src = 0; src < n; ++src) {
    const auto r = dijkstra_dense(m, n, src);
    for (NodeIdx v = 0; v < n; ++v) {
      const double expected = reference[static_cast<std::size_t>(src) * n + v];
      if (std::isinf(expected)) {
        EXPECT_TRUE(std::isinf(r.dist[static_cast<std::size_t>(v)]));
      } else {
        EXPECT_NEAR(r.dist[static_cast<std::size_t>(v)], expected, 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DijkstraRandomGraphTest, ::testing::Values(4, 8, 16, 32));

TEST(Dijkstra, PathCostsMatchDistances) {
  const NodeIdx n = 12;
  util::Pcg32 rng(99, 1);
  std::vector<double> m(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), kInf);
  for (NodeIdx i = 0; i < n; ++i) {
    m[static_cast<std::size_t>(i) * n + i] = 0.0;
    for (NodeIdx j = 0; j < n; ++j) {
      if (i != j && rng.bernoulli(0.5)) {
        m[static_cast<std::size_t>(i) * n + j] = rng.uniform(1.0, 50.0);
      }
    }
  }
  const auto r = dijkstra_dense(m, n, 0);
  for (NodeIdx v = 1; v < n; ++v) {
    const auto path = extract_path(r, 0, v);
    if (path.empty()) continue;
    double cost = 0.0;
    for (std::size_t k = 0; k + 1 < path.size(); ++k) {
      cost += m[static_cast<std::size_t>(path[k]) * n + path[k + 1]];
    }
    EXPECT_NEAR(cost, r.dist[static_cast<std::size_t>(v)], 1e-9);
  }
}

// ---- bit-exact differential against the textbook two-scan kernel ----------
//
// The reference is the textbook two-scan form: per settled vertex, one
// scan of 0..n-1 selects the unsettled vertex with the smallest distance
// (strict `<`, so the lowest index wins a tie), then a second scan relaxes
// its row. dijkstra_dense must agree with it bit for bit — `dist`
// compared as raw IEEE bits, `parent` exactly — on every source, including
// tie-heavy weights (where the settle order decides `parent`), signed zeros
// and negative weights (the clamp), NaN entries and unreachable parts.
// MatchesFloydWarshall above compares distances with a tolerance on
// tie-free weights, so it cannot see a change in either.
DijkstraResult two_scan_reference(std::span<const double> delay, NodeIdx n, NodeIdx src) {
  DijkstraResult result;
  result.dist.assign(static_cast<std::size_t>(n), kInf);
  result.parent.assign(static_cast<std::size_t>(n), -1);
  std::vector<bool> done(static_cast<std::size_t>(n), false);
  result.dist[static_cast<std::size_t>(src)] = 0.0;
  for (NodeIdx iter = 0; iter < n; ++iter) {
    NodeIdx u = -1;
    double best = kInf;
    for (NodeIdx v = 0; v < n; ++v) {
      if (!done[static_cast<std::size_t>(v)] &&
          result.dist[static_cast<std::size_t>(v)] < best) {
        best = result.dist[static_cast<std::size_t>(v)];
        u = v;
      }
    }
    if (u < 0) break;
    done[static_cast<std::size_t>(u)] = true;
    const std::size_t row = static_cast<std::size_t>(u) * static_cast<std::size_t>(n);
    for (NodeIdx v = 0; v < n; ++v) {
      if (done[static_cast<std::size_t>(v)] || v == u) continue;
      double w = delay[row + static_cast<std::size_t>(v)];
      if (w == kInf) continue;
      if (w < 0.0) w = 0.0;
      const double nd = best + w;
      if (nd < result.dist[static_cast<std::size_t>(v)]) {
        result.dist[static_cast<std::size_t>(v)] = nd;
        result.parent[static_cast<std::size_t>(v)] = u;
      }
    }
  }
  return result;
}

using WeightDraw = std::function<double(util::Pcg32&, NodeIdx, NodeIdx)>;

std::vector<double> drawn_matrix(NodeIdx n, std::uint64_t stream, const WeightDraw& draw) {
  util::Pcg32 rng(2024, stream);
  std::vector<double> m(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  for (NodeIdx i = 0; i < n; ++i) {
    for (NodeIdx j = 0; j < n; ++j) {
      m[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
        static_cast<std::size_t>(j)] = draw(rng, i, j);
    }
  }
  return m;
}

/// Runs both kernels from every source and stops at the first slot whose
/// dist bits or parent differ.
void expect_matches_reference(const std::vector<double>& m, NodeIdx n) {
  for (NodeIdx src = 0; src < n; ++src) {
    const DijkstraResult want = two_scan_reference(m, n, src);
    const DijkstraResult got = dijkstra_dense(m, n, src);
    ASSERT_EQ(got.dist.size(), want.dist.size());
    ASSERT_EQ(got.parent.size(), want.parent.size());
    for (std::size_t v = 0; v < want.dist.size(); ++v) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.dist[v]),
                std::bit_cast<std::uint64_t>(want.dist[v]))
          << "n=" << n << " src=" << src << " v=" << v << ": dist " << got.dist[v]
          << ", reference " << want.dist[v];
      ASSERT_EQ(got.parent[v], want.parent[v])
          << "n=" << n << " src=" << src << " v=" << v;
    }
  }
}

class DijkstraDifferentialTest : public ::testing::TestWithParam<int> {
 protected:
  [[nodiscard]] NodeIdx n() const { return static_cast<NodeIdx>(GetParam()); }
};

TEST_P(DijkstraDifferentialTest, SmallIntegerWeightsTieOften) {
  // Weights in {0, 1, 2, 3} with a quarter of the edges missing: many
  // vertices reach equal distances by different parents, so the settle
  // order (lowest index first) decides `parent`.
  const auto m = drawn_matrix(n(), 1, [](util::Pcg32& rng, NodeIdx, NodeIdx) {
    if (rng.bernoulli(0.25)) return kInf;
    return static_cast<double>(rng.uniform_int(0, 3));
  });
  expect_matches_reference(m, n());
}

TEST_P(DijkstraDifferentialTest, NegativeAndSignedZeroWeights) {
  const auto m = drawn_matrix(n(), 2, [](util::Pcg32& rng, NodeIdx, NodeIdx) {
    switch (rng.uniform_int(0, 7)) {
      case 0: return -0.0;
      case 1: return 0.0;
      case 2: return -rng.uniform(0.0, 5.0);
      case 3: return -kInf;
      case 4: return kInf;
      case 5: return std::ldexp(1.0, -1074);  // smallest subnormal
      default: return rng.uniform(0.0, 4.0);
    }
  });
  expect_matches_reference(m, n());
}

TEST_P(DijkstraDifferentialTest, NanEntriesAreNotEdges) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto m = drawn_matrix(n(), 3, [nan](util::Pcg32& rng, NodeIdx, NodeIdx) {
    if (rng.bernoulli(0.3)) return nan;
    if (rng.bernoulli(0.2)) return kInf;
    return rng.uniform(1.0, 100.0);
  });
  expect_matches_reference(m, n());
}

TEST_P(DijkstraDifferentialTest, InfiniteRowsAndDisconnectedParts) {
  // Three components (v % 3) with no edges between them, and every fifth
  // vertex a sink whose whole row is +inf.
  const auto m = drawn_matrix(n(), 4, [](util::Pcg32& rng, NodeIdx i, NodeIdx j) {
    if (i % 5 == 4 || i % 3 != j % 3) return kInf;
    return rng.bernoulli(0.5) ? static_cast<double>(rng.uniform_int(1, 4))
                              : rng.uniform(1.0, 50.0);
  });
  expect_matches_reference(m, n());
}

TEST_P(DijkstraDifferentialTest, DenseMemdShapedWeights) {
  // A warm MEMD matrix: zero diagonal, every off-diagonal entry a finite
  // expected delay.
  const auto m = drawn_matrix(n(), 5, [](util::Pcg32& rng, NodeIdx i, NodeIdx j) {
    return i == j ? 0.0 : rng.uniform(1.0, 500.0);
  });
  expect_matches_reference(m, n());
}

INSTANTIATE_TEST_SUITE_P(Sizes, DijkstraDifferentialTest,
                         ::testing::Values(1, 2, 3, 17, 64, 120, 130));

}  // namespace
}  // namespace dtn::core
