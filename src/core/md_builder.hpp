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
// exactly on the node's own contacts.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/community.hpp"
#include "core/contact_history.hpp"
#include "core/dijkstra.hpp"
#include "core/mi_matrix.hpp"

namespace dtn::core {

/// Builds node `self`'s MD matrix at time t (row-major n×n).
/// Row `self` uses Theorem 2 (EMD conditioned on elapsed time); other rows
/// copy MI averages. Unknown entries are +inf (no edge).
std::vector<double> build_md(const MiMatrix& mi, const ContactHistory& history,
                             NodeIdx self, double t);

/// Intra-community MD over the dense sub-index of `community`'s members:
/// result is m×m where m = members(community).size(), indexed by position
/// in that member list. Pairs outside the community contribute no edges.
std::vector<double> build_md_intra(const MiMatrix& mi, const ContactHistory& history,
                                   const CommunityTable& table, int community,
                                   NodeIdx self, double t);

/// Caches the Dijkstra distance vector from `self` over its current MD.
/// Rebuilds lazily when (mi.version, history generation marker, time bucket)
/// changed. The time bucket quantizes t so the elapsed-time dependence of
/// Theorem 2 still refreshes between contacts without rebuilding per query.
///
/// The MD matrix is kept persistent between rebuilds and synced
/// incrementally: only MI rows whose row_version moved since the last sync
/// are recopied, and the own row (Theorem 2, time-dependent) is recomputed
/// every rebuild. This turns the per-contact cost from O(n²) copy + O(n²)
/// Dijkstra into O(changed rows · n) + O(n²) Dijkstra, which is what makes
/// EER tractable at the paper's 240-node scale.
///
/// Theorem 2 reads each peer's interval window as a contiguous span, so the
/// own-row sync copies every peer's deque into one reused member buffer.
/// Once warm, a rebuild allocates only the Dijkstra result and its work
/// list (three allocations), whatever the number of peers.
class MemdCache {
 public:
  explicit MemdCache(double time_quantum = 1.0) : quantum_(time_quantum) {}

  /// MEMD(self, dst) at time t; +inf when dst is unreachable in MD.
  double memd(const MiMatrix& mi, const ContactHistory& history, NodeIdx self,
              NodeIdx dst, double t);

  /// Full distance vector (forces a rebuild check).
  const std::vector<double>& distances(const MiMatrix& mi,
                                       const ContactHistory& history, NodeIdx self,
                                       double t);

  void invalidate() { valid_ = false; }

  /// Forgets every synced row (buffers retained) — required when the
  /// backing MiMatrix itself was reset, since its rewound row versions
  /// could otherwise collide with the synced markers and leave stale MD
  /// rows in place. Router::reset support.
  void reset() {
    valid_ = false;
    std::fill(synced_versions_.begin(), synced_versions_.end(), ~0ULL);
  }

 private:
  void sync_md(const MiMatrix& mi, const ContactHistory& history, NodeIdx self,
               double t);

  double quantum_;
  bool valid_ = false;
  std::uint64_t mi_version_ = 0;
  std::int64_t time_bucket_ = 0;
  std::size_t history_pairs_ = 0;
  std::vector<double> dist_;
  std::vector<double> md_;                      ///< persistent MD buffer
  std::vector<std::uint64_t> synced_versions_;  ///< per-row MI versions in md_
  std::vector<double> window_;  ///< scratch: one peer's intervals, oldest first
};

}  // namespace dtn::core
