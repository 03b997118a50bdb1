#include "core/community_detection.hpp"

#include <algorithm>
#include <numeric>

namespace dtn::core {

std::uint64_t ContactCountGraph::key(NodeIdx a, NodeIdx b) {
  const auto lo = static_cast<std::uint64_t>(std::min(a, b));
  const auto hi = static_cast<std::uint64_t>(std::max(a, b));
  return (hi << 32) | lo;
}

void ContactCountGraph::record(NodeIdx a, NodeIdx b, int count) {
  if (a == b) return;
  counts_[key(a, b)] += count;
}

int ContactCountGraph::count(NodeIdx a, NodeIdx b) const {
  const auto it = counts_.find(key(a, b));
  return it == counts_.end() ? 0 : it->second;
}

namespace {

/// Union-find with path compression (communities are component labels).
class DisjointSet {
 public:
  explicit DisjointSet(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

CommunityTable detect_communities(const ContactCountGraph& graph,
                                  const DetectionParams& params) {
  const NodeIdx n = graph.node_count();
  DisjointSet ds(static_cast<std::size_t>(n));
  for (NodeIdx a = 0; a < n; ++a) {
    for (NodeIdx b = a + 1; b < n; ++b) {
      if (graph.count(a, b) >= params.familiar_threshold) {
        ds.unite(static_cast<std::size_t>(a), static_cast<std::size_t>(b));
      }
    }
  }
  // Dense community ids in order of first (smallest) member.
  std::vector<int> cid(static_cast<std::size_t>(n), -1);
  std::unordered_map<std::size_t, int> root_to_cid;
  int next = 0;
  for (NodeIdx v = 0; v < n; ++v) {
    const std::size_t root = ds.find(static_cast<std::size_t>(v));
    const auto [it, inserted] = root_to_cid.emplace(root, next);
    if (inserted) ++next;
    cid[static_cast<std::size_t>(v)] = it->second;
  }
  return CommunityTable(std::move(cid));
}

}  // namespace dtn::core
