#include "sim/metrics.hpp"

namespace dtn::sim {

void Metrics::reset() {
  created_ = relayed_ = started_ = aborted_ = dropped_ = expired_ = 0;
  control_bytes_ = 0;
  // Bucket-retaining clear is safe here (unlike ContactHistory::clear):
  // delivery_time_ is only probed and counted, never iterated, so its
  // bucket count cannot influence any observable order.
  delivery_time_.clear();
  latency_.reset();
  hops_.reset();
}

void Metrics::on_relayed() { ++relayed_; }

void Metrics::on_transfer_started() { ++started_; }

void Metrics::on_transfer_aborted() { ++aborted_; }

void Metrics::on_delivered(const Message& m, double t, int hop_count) {
  // Only the first replica's arrival counts. try_emplace (not emplace):
  // emplace allocates a node even when the key already exists, and
  // duplicate deliveries dominate in replication-heavy protocols.
  const auto [it, inserted] = delivery_time_.try_emplace(m.id, t);
  if (!inserted) return;
  latency_.add(t - m.created);
  hops_.add(static_cast<double>(hop_count));
}

void Metrics::on_dropped() { ++dropped_; }

void Metrics::on_expired() { ++expired_; }

double Metrics::delivery_ratio() const noexcept {
  if (created_ == 0) return 0.0;
  return static_cast<double>(delivered()) / static_cast<double>(created_);
}

double Metrics::goodput() const noexcept {
  if (relayed_ == 0) return 0.0;
  return static_cast<double>(delivered()) / static_cast<double>(relayed_);
}

}  // namespace dtn::sim
