#include "core/md_builder.hpp"

#include <algorithm>
#include <cmath>

#include "core/estimators.hpp"

namespace dtn::core {

std::vector<double> build_md(const MiMatrix& mi, const ContactHistory& history,
                             NodeIdx self, double t) {
  const NodeIdx n = mi.size();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> md(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), kInf);
  // Foreign rows: copy MI averages (D_jk ~= I_jk).
  for (NodeIdx j = 0; j < n; ++j) {
    const std::size_t row = static_cast<std::size_t>(j) * static_cast<std::size_t>(n);
    for (NodeIdx k = 0; k < n; ++k) {
      md[row + static_cast<std::size_t>(k)] = j == k ? 0.0 : mi.get(j, k);
    }
  }
  // Own row: Theorem 2 over the live window, conditioned on elapsed time.
  const std::size_t self_row =
      static_cast<std::size_t>(self) * static_cast<std::size_t>(n);
  for (NodeIdx k = 0; k < n; ++k) {
    if (k == self) continue;
    md[self_row + static_cast<std::size_t>(k)] = kInf;
  }
  std::vector<double> window;  // one buffer for every peer's interval window
  for (const auto& [peer, ph] : history.pairs()) {
    if (peer == self || peer < 0 || peer >= n) continue;
    if (!ph.met || ph.intervals.empty()) continue;
    const double elapsed = t - ph.last_contact;
    window.assign(ph.intervals.begin(), ph.intervals.end());
    md[self_row + static_cast<std::size_t>(peer)] =
        expected_meeting_delay(window, elapsed);
  }
  return md;
}

std::vector<double> build_md_intra(const MiMatrix& mi, const ContactHistory& history,
                                   const CommunityTable& table, int community,
                                   NodeIdx self, double t) {
  const auto& members = table.members(community);
  const auto m = static_cast<NodeIdx>(members.size());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> md(static_cast<std::size_t>(m) * static_cast<std::size_t>(m), kInf);
  // Dense sub-index: position of each member in the member list.
  for (NodeIdx a = 0; a < m; ++a) {
    const std::size_t row = static_cast<std::size_t>(a) * static_cast<std::size_t>(m);
    for (NodeIdx b = 0; b < m; ++b) {
      md[row + static_cast<std::size_t>(b)] =
          a == b ? 0.0 : mi.get(members[static_cast<std::size_t>(a)],
                                members[static_cast<std::size_t>(b)]);
    }
  }
  // Own row via Theorem 2 (self must be a member; otherwise leave MI rows).
  NodeIdx self_pos = -1;
  for (NodeIdx a = 0; a < m; ++a) {
    if (members[static_cast<std::size_t>(a)] == self) {
      self_pos = a;
      break;
    }
  }
  if (self_pos >= 0) {
    const std::size_t row =
        static_cast<std::size_t>(self_pos) * static_cast<std::size_t>(m);
    std::vector<double> window;  // one buffer for every member's interval window
    for (NodeIdx b = 0; b < m; ++b) {
      if (b == self_pos) continue;
      const NodeIdx peer = members[static_cast<std::size_t>(b)];
      const PairHistory* ph = history.pair(peer);
      if (ph == nullptr || !ph->met || ph->intervals.empty()) {
        md[row + static_cast<std::size_t>(b)] = kInf;
        continue;
      }
      const double elapsed = t - ph->last_contact;
      window.assign(ph->intervals.begin(), ph->intervals.end());
      md[row + static_cast<std::size_t>(b)] = expected_meeting_delay(window, elapsed);
    }
  }
  return md;
}

double MemdCache::memd(const MiMatrix& mi, const ContactHistory& history, NodeIdx self,
                       NodeIdx dst, double t) {
  return distances(mi, history, self, t).at(static_cast<std::size_t>(dst));
}

void MemdCache::sync_md(const MiMatrix& mi, const ContactHistory& history,
                        NodeIdx self, double t) {
  const NodeIdx n = mi.size();
  const auto n_sz = static_cast<std::size_t>(n);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (md_.size() != n_sz * n_sz) {
    md_.assign(n_sz * n_sz, kInf);
    synced_versions_.assign(n_sz, ~0ULL);
  }
  // Foreign rows: recopy only the rows whose MI content moved.
  for (NodeIdx j = 0; j < n; ++j) {
    if (j == self) continue;
    const std::uint64_t v = mi.row_version(j);
    if (synced_versions_[static_cast<std::size_t>(j)] == v) continue;
    const double* src = mi.row_data(j);
    double* dst = md_.data() + static_cast<std::size_t>(j) * n_sz;
    std::copy_n(src, n_sz, dst);
    dst[static_cast<std::size_t>(j)] = 0.0;
    synced_versions_[static_cast<std::size_t>(j)] = v;
  }
  // Own row: Theorem 2 is elapsed-time dependent — recompute every sync.
  double* own = md_.data() + static_cast<std::size_t>(self) * n_sz;
  std::fill_n(own, n_sz, kInf);
  own[static_cast<std::size_t>(self)] = 0.0;
  for (const auto& [peer, ph] : history.pairs()) {
    if (peer == self || peer < 0 || peer >= n) continue;
    if (!ph.met || ph.intervals.empty()) continue;
    const double elapsed = t - ph.last_contact;
    window_.assign(ph.intervals.begin(), ph.intervals.end());
    own[static_cast<std::size_t>(peer)] = expected_meeting_delay(window_, elapsed);
  }
}

const std::vector<double>& MemdCache::distances(const MiMatrix& mi,
                                                const ContactHistory& history,
                                                NodeIdx self, double t) {
  const auto bucket = static_cast<std::int64_t>(std::floor(t / quantum_));
  if (!valid_ || mi.version() != mi_version_ || bucket != time_bucket_ ||
      history.pair_count() != history_pairs_) {
    sync_md(mi, history, self, t);
    dist_ = dijkstra_dense(md_, mi.size(), self).dist;
    valid_ = true;
    mi_version_ = mi.version();
    time_bucket_ = bucket;
    history_pairs_ = history.pair_count();
  }
  return dist_;
}

}  // namespace dtn::core
