// Run metrics, following the paper's definitions (Sec. V-A) verbatim:
//   delivery ratio = delivered / generated
//   latency        = mean end-to-end delay of delivered messages
//   goodput        = delivered / total relayed (completed transfers)
// plus diagnostics the paper discusses qualitatively (control overhead for
// the MI exchange, drops, aborted transfers, hop counts).
#pragma once

#include <cstdint>
#include <unordered_map>

#include "sim/message.hpp"
#include "util/stats.hpp"

namespace dtn::sim {

class Metrics {
 public:
  /// Zeroes all counters, retaining container capacity (the delivery map's
  /// bucket array survives), so a World reused across sweep seeds does not
  /// re-grow its metrics storage every run.
  void reset();

  void on_created() { ++created_; }
  /// Records a completed transfer (a "relay" in the paper's goodput sense).
  void on_relayed();
  void on_transfer_started();
  void on_transfer_aborted();
  /// First delivery of a message; later duplicates are ignored.
  void on_delivered(const Message& m, double t, int hop_count);
  void on_dropped();
  void on_expired();
  void add_control_bytes(std::int64_t bytes) { control_bytes_ += bytes; }

  [[nodiscard]] bool is_delivered(MsgId id) const { return delivery_time_.count(id) > 0; }

  [[nodiscard]] std::int64_t created() const noexcept { return created_; }
  [[nodiscard]] std::int64_t delivered() const noexcept {
    return static_cast<std::int64_t>(delivery_time_.size());
  }
  [[nodiscard]] std::int64_t relayed() const noexcept { return relayed_; }
  [[nodiscard]] std::int64_t transfers_started() const noexcept { return started_; }
  [[nodiscard]] std::int64_t transfers_aborted() const noexcept { return aborted_; }
  [[nodiscard]] std::int64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::int64_t expired() const noexcept { return expired_; }
  [[nodiscard]] std::int64_t control_bytes() const noexcept { return control_bytes_; }

  [[nodiscard]] double delivery_ratio() const noexcept;
  [[nodiscard]] double latency_mean() const noexcept { return latency_.mean(); }
  [[nodiscard]] double goodput() const noexcept;
  [[nodiscard]] double hop_count_mean() const noexcept { return hops_.mean(); }
  [[nodiscard]] const util::StatAccumulator& latency_stats() const noexcept {
    return latency_;
  }

 private:
  std::int64_t created_ = 0;
  std::int64_t relayed_ = 0;
  std::int64_t started_ = 0;
  std::int64_t aborted_ = 0;
  std::int64_t dropped_ = 0;
  std::int64_t expired_ = 0;
  std::int64_t control_bytes_ = 0;
  std::unordered_map<MsgId, double> delivery_time_;
  util::StatAccumulator latency_;
  util::StatAccumulator hops_;
};

}  // namespace dtn::sim
