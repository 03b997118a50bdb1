// Dense single-source Dijkstra over an n×n non-negative delay matrix.
// O(n²), no heap: for the full dense matrices MD produces, the simple
// quadratic form beats a binary-heap version. Theorem 3 of the paper:
// running this over the MD matrix yields the minimum expected meeting delay
// (MEMD).
//
// The kernel keeps the unsettled vertices in one ascending index list and
// makes one fused pass over it per settled vertex u: relax u -> v, then test
// v's distance as the next vertex to settle. About n²/2 element visits per
// call; three allocations (`dist`, `parent` and the list).
//
// Bit-identity contract: the result is a pure function of the matrix bits.
// Each `dist[v]` is the same `best + w` sum of the same operands as the
// textbook two-scan form (select, then relax, each over 0..n-1), and among
// equal tentative distances the lowest index is settled first. Callers
// (MEMD, MEED, MaxProp, CR) and every golden depend on both; a change to
// either is a behaviour change, not an optimisation.
//
// perfbench/CMakeLists.txt `--wrap`s dijkstra_dense by its mangled name,
// so its signature stays as declared and its definition stays out of line
// in dijkstra.cpp.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace dtn::core {

using NodeIdx = std::int32_t;

struct DijkstraResult {
  std::vector<double> dist;     ///< dist[v] = shortest delay src -> v
  std::vector<NodeIdx> parent;  ///< parent[v] on the shortest path tree, -1 at src/unreached

  [[nodiscard]] bool reachable(NodeIdx v) const {
    return dist.at(static_cast<std::size_t>(v)) !=
           std::numeric_limits<double>::infinity();
  }
};

/// `delay` is row-major n×n; delay[i*n+j] = edge weight i->j (+inf = no
/// edge). Negative weights are clamped to 0 (expected delays are
/// non-negative by construction; the clamp guards rounding).
DijkstraResult dijkstra_dense(std::span<const double> delay, NodeIdx n, NodeIdx src);

/// Reconstructs the path src -> dst (inclusive); empty if unreachable.
std::vector<NodeIdx> extract_path(const DijkstraResult& result, NodeIdx src, NodeIdx dst);

}  // namespace dtn::core
