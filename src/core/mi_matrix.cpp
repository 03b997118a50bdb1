#include "core/mi_matrix.hpp"

#include <algorithm>
#include <cassert>

namespace dtn::core {

MiMatrix::MiMatrix(NodeIdx n)
    : n_(n), data_(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), kUnknown),
      row_times_(static_cast<std::size_t>(n), -std::numeric_limits<double>::infinity()) {
  for (NodeIdx i = 0; i < n_; ++i) {
    data_[static_cast<std::size_t>(i) * n_ + static_cast<std::size_t>(i)] = 0.0;
  }
}

void MiMatrix::reset() {
  std::fill(data_.begin(), data_.end(), kUnknown);
  for (NodeIdx i = 0; i < n_; ++i) {
    data_[static_cast<std::size_t>(i) * n_ + static_cast<std::size_t>(i)] = 0.0;
  }
  std::fill(row_times_.begin(), row_times_.end(),
            -std::numeric_limits<double>::infinity());
  version_ = 0;
}

double MiMatrix::get(NodeIdx i, NodeIdx j) const {
  assert(i >= 0 && i < n_ && j >= 0 && j < n_);
  return data_[static_cast<std::size_t>(i) * n_ + static_cast<std::size_t>(j)];
}

void MiMatrix::set_entry(NodeIdx i, NodeIdx j, double avg_interval, double t) {
  assert(i >= 0 && i < n_ && j >= 0 && j < n_);
  if (i == j) return;  // diagonal fixed at 0
  data_[static_cast<std::size_t>(i) * n_ + static_cast<std::size_t>(j)] = avg_interval;
  row_times_[static_cast<std::size_t>(i)] =
      std::max(row_times_[static_cast<std::size_t>(i)], t);
  ++version_;
}

int MiMatrix::merge_from(const MiMatrix& other) {
  assert(other.n_ == n_);
  int copied = 0;
  for (NodeIdx i = 0; i < n_; ++i) {
    const auto row = static_cast<std::size_t>(i);
    if (other.row_times_[row] > row_times_[row]) {
      const std::size_t begin = row * static_cast<std::size_t>(n_);
      std::copy_n(other.data_.begin() + static_cast<std::ptrdiff_t>(begin),
                  static_cast<std::size_t>(n_),
                  data_.begin() + static_cast<std::ptrdiff_t>(begin));
      row_times_[row] = other.row_times_[row];
      ++copied;
    }
  }
  if (copied > 0) ++version_;
  return copied;
}

}  // namespace dtn::core
