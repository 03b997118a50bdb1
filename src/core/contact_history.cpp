#include "core/contact_history.hpp"

#include <algorithm>
#include <numeric>

namespace dtn::core {

double PairHistory::average_interval() const {
  if (intervals.empty()) return 0.0;
  return interval_sum_ / static_cast<double>(intervals.size());
}

const std::vector<double>& PairHistory::sorted_intervals() const {
  if (cache_dirty_) {
    sorted_cache_.assign(intervals.begin(), intervals.end());
    std::sort(sorted_cache_.begin(), sorted_cache_.end());
    cache_dirty_ = false;
  }
  return sorted_cache_;
}

ContactHistory::ContactHistory(std::size_t window_capacity)
    : capacity_(window_capacity == 0 ? 1 : window_capacity) {}

void ContactHistory::record_contact(NodeIdx peer, double t) {
  PairHistory& ph = pairs_[peer];
  if (ph.met) {
    const double interval = t - ph.last_contact;
    if (interval > 0.0) {
      ph.intervals.push_back(interval);
      // Appending extends the left fold exactly (sum' = sum + x), so the
      // running sum stays bit-identical to accumulating the whole window.
      ph.interval_sum_ += interval;
      if (ph.intervals.size() > capacity_) {
        ph.intervals.pop_front();
        // Evicting the oldest breaks the fold; re-accumulate the (small,
        // bounded) window so rounding never drifts from the exact sum.
        ph.interval_sum_ =
            std::accumulate(ph.intervals.begin(), ph.intervals.end(), 0.0);
      }
      ph.last_contact = t;
      ph.cache_dirty_ = true;
    }
    // interval <= 0 (re-detection in the same instant): keep existing t0.
  } else {
    ph.met = true;
    ph.last_contact = t;
  }
}

const PairHistory* ContactHistory::pair(NodeIdx peer) const {
  const auto it = pairs_.find(peer);
  return it == pairs_.end() ? nullptr : &it->second;
}

}  // namespace dtn::core
