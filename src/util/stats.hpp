// Streaming statistics helpers used by the metrics pipeline and the
// experiment harness (per-seed aggregation of delivery ratio / latency /
// goodput series).
#pragma once

#include <cstddef>
#include <limits>

namespace dtn::util {

/// Single-pass accumulator using Welford's algorithm: numerically stable
/// mean / variance plus min / max, O(1) memory.
class StatAccumulator {
 public:
  void add(double x) noexcept;
  void reset() noexcept { *this = StatAccumulator{}; }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace dtn::util
