// Dense single-source Dijkstra over an n×n non-negative delay matrix.
// O(n²), no heap. Theorem 3 of the paper: running this over the MD matrix
// yields the minimum expected meeting delay (MEMD).
//
// The inputs are sparse, not dense: EER's MD matrices on the `paper_eer`
// benchmark (n = 120) hold about 12% finite entries, the inputs of the
// Fig. 2 protocol mix at 80 buses about 16%, and 80-84% of the vertices
// are reachable from the source. So the kernel does not branch per entry to
// skip the +inf ones. The tentative distances sit in one n-array `key`, in
// which a settled vertex holds NaN. For each settled vertex u, one SSE2
// pass over all n entries computes key[v] = min(best + max(0, w_uv),
// key[v]) together with the running minimum; in that operand order a
// negative weight counts as 0, a NaN or +inf weight changes nothing, and a
// NaN key is never overwritten or picked. A second vector scan finds the
// lowest index that holds the minimum, and that vertex settles next. About
// (reachable vertices) × n element visits per call; two allocations
// (`dist` and `key`). Without SSE2 the same loop runs in scalar form.
//
// Bit-identity contract: `dist` is a pure function of the matrix bits.
// Each `dist[v]` is the same `best + w` sum of the same operands as the
// textbook two-scan form (select, then relax, each over 0..n-1), and among
// equal tentative distances the lowest index settles first. The contract
// covers `dist` and that settle order only. Callers (MEMD, MEED, MaxProp,
// CR) and every golden read `dist`, so a change to it is a behaviour
// change, not an optimisation. No `dist` bit depends on how a tie is
// broken (a vertex settled at distance d cannot lower another key at d),
// so tests cannot see the tie order; it stays the reference's.
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
  std::vector<double> dist;  ///< dist[v] = shortest delay src -> v (+inf: unreachable)

  [[nodiscard]] bool reachable(NodeIdx v) const {
    return dist.at(static_cast<std::size_t>(v)) !=
           std::numeric_limits<double>::infinity();
  }
};

/// `delay` is row-major n×n; delay[i*n+j] = edge weight i->j (+inf or NaN =
/// no edge). Negative weights are clamped to 0 (expected delays are
/// non-negative by construction; the clamp guards rounding).
DijkstraResult dijkstra_dense(std::span<const double> delay, NodeIdx n, NodeIdx src);

}  // namespace dtn::core
