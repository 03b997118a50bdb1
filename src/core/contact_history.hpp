// Sliding-window contact history (paper Sec. III-A1): for each peer, a node
// records the last `window_capacity` meeting intervals Δt^{ij}_k and the
// time t^{ij}_0 of the last contact. All four theorems of the paper are
// functions of this state.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

namespace dtn::core {

using NodeIdx = std::int32_t;

struct PairHistory {
  std::deque<double> intervals;  ///< recorded meeting intervals, oldest first
  double last_contact = 0.0;     ///< t^{ij}_0
  bool met = false;              ///< at least one contact recorded

  /// Average meeting interval I_ij = (1/r) Σ Δt_k; 0 when no intervals yet.
  /// O(1): a running sum is maintained as intervals enter and leave the
  /// window instead of re-accumulating on every estimator call.
  [[nodiscard]] double average_interval() const;
  [[nodiscard]] std::size_t count() const noexcept { return intervals.size(); }

  /// Ascending copy of the window, rebuilt lazily after updates. The
  /// estimators binary-search it, making EEV/ENEC O(peers · log window)
  /// per evaluation instead of O(peers · window).
  [[nodiscard]] const std::vector<double>& sorted_intervals() const;

 private:
  friend class ContactHistory;
  double interval_sum_ = 0.0;  ///< running Σ Δt_k over the window
  mutable std::vector<double> sorted_cache_;
  mutable bool cache_dirty_ = true;
};

class ContactHistory {
 public:
  explicit ContactHistory(std::size_t window_capacity = 32);

  /// Forgets every pair, dropping to the exact just-constructed container
  /// state — Router::reset support. Deliberately NOT a bucket-retaining
  /// clear(): the estimators iterate pairs() accumulating floating-point
  /// sums, and unordered_map iteration order depends on the bucket count,
  /// so a retained (larger) bucket array could reorder the summation and
  /// break the bit-identical reseed contract in the last ulp.
  void clear() noexcept { pairs_ = {}; }

  /// Records a contact with `peer` at time t. If a previous contact exists
  /// the interval t - t0 is appended (evicting the oldest past capacity).
  /// Contacts arriving out of order or coincident (interval <= 0) only
  /// refresh t0.
  void record_contact(NodeIdx peer, double t);

  /// nullptr when the pair has never met.
  [[nodiscard]] const PairHistory* pair(NodeIdx peer) const;

  [[nodiscard]] std::size_t window_capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t pair_count() const noexcept { return pairs_.size(); }

  /// Iteration support for estimators (read-only).
  [[nodiscard]] const std::unordered_map<NodeIdx, PairHistory>& pairs() const {
    return pairs_;
  }

 private:
  std::size_t capacity_;
  std::unordered_map<NodeIdx, PairHistory> pairs_;
};

}  // namespace dtn::core
