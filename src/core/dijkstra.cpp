#include "core/dijkstra.hpp"

#include <algorithm>
#include <cassert>

namespace dtn::core {

DijkstraResult dijkstra_dense(std::span<const double> delay, NodeIdx n, NodeIdx src) {
  assert(delay.size() == static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  assert(src >= 0 && src < n);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto n_sz = static_cast<std::size_t>(n);
  DijkstraResult result;
  result.dist.assign(n_sz, kInf);
  result.parent.assign(n_sz, -1);
  result.dist[static_cast<std::size_t>(src)] = 0.0;
  double* dist = result.dist.data();
  NodeIdx* parent = result.parent.data();

  // The unsettled vertices in ascending index order.
  std::vector<NodeIdx> open;
  open.reserve(n_sz - 1);
  for (NodeIdx v = 0; v < n; ++v) {
    if (v != src) open.push_back(v);
  }

  NodeIdx u = src;
  double best = 0.0;
  for (;;) {
    // One pass per settled vertex: relax u -> v, then offer v's (possibly
    // just lowered) distance as the next vertex to settle. The strict `<`
    // keeps the lowest index among equal distances.
    const double* row = delay.data() + static_cast<std::size_t>(u) * n_sz;
    std::size_t next = open.size();
    double next_best = kInf;
    for (std::size_t p = 0; p < open.size(); ++p) {
      const auto v = static_cast<std::size_t>(open[p]);
      double d = dist[v];
      double w = row[v];
      if (w != kInf) {
        if (w < 0.0) w = 0.0;
        const double nd = best + w;
        if (nd < d) {
          d = nd;
          dist[v] = nd;
          parent[v] = u;
        }
      }
      if (d < next_best) {
        next_best = d;
        next = p;
      }
    }
    if (next == open.size()) break;  // remaining vertices unreachable
    u = open[next];
    best = next_best;
    open.erase(open.begin() + static_cast<std::ptrdiff_t>(next));
  }
  return result;
}

std::vector<NodeIdx> extract_path(const DijkstraResult& result, NodeIdx src,
                                  NodeIdx dst) {
  if (!result.reachable(dst)) return {};
  std::vector<NodeIdx> path;
  for (NodeIdx cur = dst; cur != -1; cur = result.parent[static_cast<std::size_t>(cur)]) {
    path.push_back(cur);
    if (cur == src) break;
  }
  if (path.back() != src) return {};
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace dtn::core
