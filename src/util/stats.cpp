#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace dtn::util {

void StatAccumulator::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double StatAccumulator::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double StatAccumulator::stddev() const noexcept { return std::sqrt(variance()); }

}  // namespace dtn::util
