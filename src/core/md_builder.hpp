// MD construction + MEMD (paper Sec. III-B2, Theorems 2 & 3).
//
// A node u_i builds the expected-meeting-delay matrix MD whenever it meets
// another node: its own row D_ij comes from Theorem 2 applied to its live
// contact history (conditioned on elapsed time), while every foreign entry
// D_jk (j != i) is approximated by the average interval I_jk from the MI
// matrix ("ui can replace it with I_jk for simplicity"). Dijkstra over MD
// from u_i then yields MEMD(u_i, d) for every destination d at once.
//
// MemdCache wraps this with version-based invalidation: the MD only needs
// rebuilding when the node's MI or own history changed, which happens
// exactly on the node's own contacts, or when the time bucket advances.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/community.hpp"
#include "core/contact_history.hpp"
#include "core/dijkstra.hpp"
#include "core/mi_matrix.hpp"

namespace dtn::core {

/// Width in seconds of a MEMD time bucket. A cached MEMD is rebuilt when
/// the query time enters a new bucket, so Theorem 2's elapsed-time term
/// refreshes between contacts without a rebuild per query. EER and CR
/// share it.
inline constexpr double kMemdTimeBucket = 1.0;

/// The bucket that holds time t.
inline std::int64_t memd_time_bucket(double t) {
  return static_cast<std::int64_t>(std::floor(t / kMemdTimeBucket));
}

/// Builds node `self`'s MD matrix at time t (row-major n×n).
/// Row `self` uses Theorem 2 (EMD conditioned on elapsed time); other rows
/// copy MI averages. Unknown entries are +inf (no edge). MemdCache gets the
/// same distances without the n×n copy; tests compare the two.
std::vector<double> build_md(const MiMatrix& mi, const ContactHistory& history,
                             NodeIdx self, double t);

/// Intra-community MD over the dense sub-index of `community`'s members:
/// result is m×m where m = members(community).size(), indexed by position
/// in that member list. Pairs outside the community contribute no edges.
std::vector<double> build_md_intra(const MiMatrix& mi, const ContactHistory& history,
                                   const CommunityTable& table, int community,
                                   NodeIdx self, double t);

/// Caches the Dijkstra distance vector from `self` over its current MD.
/// Rebuilds lazily when (mi.version, history pair count, time bucket)
/// changed.
///
/// MD differs from MI only in row `self`, so the cache keeps no matrix of
/// its own. A rebuild computes the Theorem 2 row into one n-vector, swaps
/// it into the MI's storage for the length of one dijkstra_dense call
/// (MiMatrix::with_row) and swaps the MI row back. For j != self, Dijkstra
/// reads MD row j as the very bytes of MI row j, and MI's diagonal is
/// already 0, so the distances are those of dijkstra_dense(build_md(...)),
/// bit for bit. Per-router EER state is one n×n matrix, the MI.
///
/// Theorem 2 reads each peer's interval window as a contiguous span, so the
/// own row copies every peer's deque into one reused member buffer. Once
/// warm, a rebuild allocates only the Dijkstra result and its key array
/// (two allocations), whatever the number of peers.
class MemdCache {
 public:
  /// MEMD(self, dst) at time t; +inf when dst is unreachable in MD.
  double memd(const MiMatrix& mi, const ContactHistory& history, NodeIdx self,
              NodeIdx dst, double t);

  /// Full distance vector (forces a rebuild check).
  const std::vector<double>& distances(const MiMatrix& mi,
                                       const ContactHistory& history, NodeIdx self,
                                       double t);

  /// Forces the next query to rebuild (buffers retained). Required when
  /// the backing MiMatrix was reset, since its rewound version could
  /// otherwise match the cached one. Router::reset support.
  void reset() { valid_ = false; }

 private:
  void fill_own_row(const ContactHistory& history, NodeIdx self, NodeIdx n, double t);

  bool valid_ = false;
  std::uint64_t mi_version_ = 0;
  std::int64_t time_bucket_ = 0;
  std::size_t history_pairs_ = 0;
  std::vector<double> dist_;
  std::vector<double> own_row_;  ///< Theorem 2 row, swapped into MI for Dijkstra
  std::vector<double> window_;   ///< scratch: one peer's intervals, oldest first
};

}  // namespace dtn::core
