// Meeting-interval matrix MI (paper Sec. III-B2): an n×n matrix of average
// meeting intervals I_ij, where row i is owned and updated by node u_i.
// Each row carries a last-update timestamp; when two nodes meet they
// exchange only the rows the other side has staler (paper footnote 1),
// which is also what the control-overhead accounting charges.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

namespace dtn::core {

using NodeIdx = std::int32_t;

class MiMatrix {
 public:
  static constexpr double kUnknown = std::numeric_limits<double>::infinity();

  explicit MiMatrix(NodeIdx n);

  /// Restores the just-constructed state (all entries unknown, diagonal 0,
  /// rows never updated, version rewound) without reallocating —
  /// Router::reset support for cross-run reuse.
  void reset();

  [[nodiscard]] NodeIdx size() const noexcept { return n_; }

  /// I_ij; 0 on the diagonal, kUnknown when no information yet.
  [[nodiscard]] double get(NodeIdx i, NodeIdx j) const;

  /// Updates one entry of row `i` (the owner's row) and stamps the row with
  /// time t. Only the row owner calls this with i == its own id.
  void set_entry(NodeIdx i, NodeIdx j, double avg_interval, double t);

  [[nodiscard]] double row_time(NodeIdx i) const {
    return row_times_.at(static_cast<std::size_t>(i));
  }

  /// Copies every row the `other` matrix has fresher. Returns the number of
  /// rows copied (the unit the routers convert into control bytes).
  int merge_from(const MiMatrix& other);

  /// Bytes one row occupies on the air: n doubles + a timestamp.
  [[nodiscard]] std::int64_t row_bytes() const noexcept {
    return static_cast<std::int64_t>(n_) * 8 + 8;
  }

  /// Monotone counter bumped on every mutation; lets callers cache values
  /// derived from the matrix (e.g. MEMD vectors) and detect staleness.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// The whole matrix, row-major: entry (i, j) at i * size() + j. Every
  /// diagonal entry is +0.0 (the constructor and reset() write it,
  /// set_entry skips it, merge_from copies whole rows of matrices that keep
  /// the same rule), so the span is a ready Dijkstra delay graph.
  [[nodiscard]] std::span<const double> storage() const noexcept { return data_; }

  /// Calls `fn(storage())` with row `i` replaced by `row` (size() entries)
  /// and returns what `fn` returns. The two rows trade places before the
  /// call and trade back when `fn` returns or throws, so afterwards the
  /// matrix holds its own bytes and `row` holds what it held. Row times and
  /// version() never move: once the call is over nothing can tell it
  /// happened. During the call, get(i, ·) reads `row` too, and `fn` must
  /// not mutate this matrix or nest another with_row on it.
  ///
  /// The member is const but writes the storage, so it is not safe against
  /// concurrent readers: a matrix is only ever touched from the thread that
  /// steps its World.
  template <typename Fn>
  decltype(auto) with_row(NodeIdx i, std::span<double> row, Fn&& fn) const {
    assert(i >= 0 && i < n_ && row.size() == static_cast<std::size_t>(n_));
    // The elements are heap objects that were never const, so writing them
    // through a const matrix is defined; `swapped` trades them back.
    double* own = const_cast<double*>(data_.data()) +
                  static_cast<std::size_t>(i) * static_cast<std::size_t>(n_);
    class Swapped {
     public:
      Swapped(std::span<double> row, double* own) : row_(row), own_(own) {
        std::swap_ranges(row_.begin(), row_.end(), own_);
      }
      Swapped(const Swapped&) = delete;
      Swapped& operator=(const Swapped&) = delete;
      ~Swapped() { std::swap_ranges(row_.begin(), row_.end(), own_); }

     private:
      std::span<double> row_;
      double* own_;
    };
    const Swapped swapped(row, own);
    return std::forward<Fn>(fn)(storage());
  }

 private:
  NodeIdx n_;
  std::vector<double> data_;       // row-major n×n
  std::vector<double> row_times_;  // -inf = never updated
  std::uint64_t version_ = 0;
};

}  // namespace dtn::core
