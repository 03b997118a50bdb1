#include "core/dijkstra.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace dtn::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Relaxes row[v] into key[v] for v in [begin, end) and returns the smallest
/// key seen, starting from `low`. Each step is the SSE2 loop's operations in
/// their operand order: max(0, w) as `0 > w ? 0 : w` (MAXPD), which keeps
/// `w < 0 ? 0 : w` and passes a NaN weight through, and min(a, b) as
/// `a < b ? a : b` (MINPD), so a NaN or +inf sum and a NaN key each leave
/// the key as it was, and a NaN key never lowers `low`.
double relax_scalar(const double* row, double* key, double best, std::size_t begin,
                    std::size_t end, double low) {
  for (std::size_t v = begin; v < end; ++v) {
    const double w = row[v];
    const double cand = best + (0.0 > w ? 0.0 : w);
    const double k = cand < key[v] ? cand : key[v];
    key[v] = k;
    low = k < low ? k : low;
  }
  return low;
}

/// relax_scalar over [0, n), four keys per step with two running minima.
double relax(const double* row, double* key, double best, std::size_t n) {
  std::size_t v = 0;
  double low = kInf;
#if defined(__SSE2__)
  const __m128d zero = _mm_setzero_pd();
  const __m128d base = _mm_set1_pd(best);
  __m128d low0 = _mm_set1_pd(kInf);
  __m128d low1 = low0;
  for (; v + 4 <= n; v += 4) {
    const __m128d k0 = _mm_min_pd(
        _mm_add_pd(base, _mm_max_pd(zero, _mm_loadu_pd(row + v))), _mm_loadu_pd(key + v));
    const __m128d k1 = _mm_min_pd(
        _mm_add_pd(base, _mm_max_pd(zero, _mm_loadu_pd(row + v + 2))),
        _mm_loadu_pd(key + v + 2));
    _mm_storeu_pd(key + v, k0);
    _mm_storeu_pd(key + v + 2, k1);
    low0 = _mm_min_pd(k0, low0);
    low1 = _mm_min_pd(k1, low1);
  }
  // Neither accumulator holds a NaN, so the lane order does not matter.
  low0 = _mm_min_pd(low0, low1);
  low = std::min(_mm_cvtsd_f64(low0), _mm_cvtsd_f64(_mm_unpackhi_pd(low0, low0)));
#endif
  return relax_scalar(row, key, best, v, n, low);
}

/// The lowest index whose key equals `low`; one exists, since `low` is a
/// finite key that relax() returned.
std::size_t first_index_of(const double* key, std::size_t n, double low) {
  std::size_t v = 0;
#if defined(__SSE2__)
  const __m128d target = _mm_set1_pd(low);
  for (; v + 4 <= n; v += 4) {
    const int mask =
        _mm_movemask_pd(_mm_cmpeq_pd(_mm_loadu_pd(key + v), target)) |
        (_mm_movemask_pd(_mm_cmpeq_pd(_mm_loadu_pd(key + v + 2), target)) << 2);
    if (mask != 0) {
      return v + static_cast<std::size_t>(std::countr_zero(static_cast<unsigned>(mask)));
    }
  }
#endif
  while (key[v] != low) ++v;
  return v;
}

}  // namespace

DijkstraResult dijkstra_dense(std::span<const double> delay, NodeIdx n, NodeIdx src) {
  assert(delay.size() == static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  assert(src >= 0 && src < n);
  const auto n_sz = static_cast<std::size_t>(n);
  DijkstraResult result;
  result.dist.assign(n_sz, kInf);
  // Tentative distances; a settled vertex holds NaN, which no relaxation
  // overwrites and no minimum picks.
  std::vector<double> key(n_sz, kInf);

  auto u = static_cast<std::size_t>(src);
  double best = 0.0;
  for (std::size_t settled = 1;; ++settled) {
    result.dist[u] = best;
    key[u] = std::numeric_limits<double>::quiet_NaN();
    if (settled == n_sz) break;  // no vertex left to relax
    const double low = relax(delay.data() + u * n_sz, key.data(), best, n_sz);
    if (!(low < kInf)) break;  // every unsettled vertex is unreachable
    u = first_index_of(key.data(), n_sz, low);
    best = key[u];
  }
  return result;
}

}  // namespace dtn::core
