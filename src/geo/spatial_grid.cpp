#include "geo/spatial_grid.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

namespace dtn::geo {

namespace {

// A cell coordinate wrapped to 32 bits, with its sign bit flipped so that
// unsigned order is signed order.
std::uint64_t biased_cell(double v, double inv_cell) noexcept {
  const auto c = static_cast<std::int64_t>(std::floor(v * inv_cell));
  return static_cast<std::uint32_t>(c) ^ 0x80000000u;
}

// The key step from a cell to the cell above it.
constexpr std::uint64_t kRow = std::uint64_t{1} << 32;

}  // namespace

void SpatialGrid::update(std::int32_t id, Vec2 pos) {
  assert(id >= 0 && "ids must be non-negative");
  const auto i = static_cast<std::size_t>(id);
  if (i < pos_.size()) {
    pos_[i] = pos;
    return;
  }
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  pos_.resize(i, Vec2{kNaN, kNaN});  // a no-op when ids come in order
  pos_.push_back(pos);
}

void SpatialGrid::all_pairs_into(
    double radius, std::vector<std::pair<std::int32_t, std::int32_t>>& out) const {
  assert(radius > 0.0);
  out.clear();
  // Bucket. A point with a non-finite coordinate (an absent id among them)
  // is in range of nothing and has no cell.
  const double inv_cell = 1.0 / radius;
  entries_.clear();
  for (std::size_t i = 0; i < pos_.size(); ++i) {
    const Vec2 p = pos_[i];
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) continue;
    entries_.push_back({biased_cell(p.y, inv_cell) << 32 | biased_cell(p.x, inv_cell),
                        static_cast<std::int32_t>(i)});
  }

  // Stable LSD radix sort by key, one pass per 8-bit digit that differs
  // between some keys: two to four passes on a map of a few km.
  std::uint64_t varying = 0;
  for (const Entry& e : entries_) varying |= e.key ^ entries_.front().key;
  sort_tmp_.resize(entries_.size());
  for (int shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xffu) == 0) continue;
    std::array<std::size_t, 257> start{};
    for (const Entry& e : entries_) ++start[((e.key >> shift) & 0xffu) + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    for (const Entry& e : entries_) sort_tmp_[start[(e.key >> shift) & 0xffu]++] = e;
    entries_.swap(sort_tmp_);
  }

  // Sweep. The cells a cell pairs with are the keys key + 1 (east) and
  // key + kRow - 1 .. key + kRow + 1 (the next row), all after it in key
  // order, so `up`, the first entry that can lie in the next row, only
  // moves forward.
  const Entry* e = entries_.data();
  const std::size_t n = entries_.size();
  const Vec2* pos = pos_.data();
  const double r2 = radius * radius;
  const auto test = [&](std::size_t a0, std::size_t a1, std::size_t b0, std::size_t b1) {
    for (std::size_t a = a0; a < a1; ++a) {
      const std::int32_t ia = e[a].id;
      const Vec2 pa = pos[static_cast<std::size_t>(ia)];
      for (std::size_t b = b0; b < b1; ++b) {
        const std::int32_t ib = e[b].id;
        if (pa.distance2_to(pos[static_cast<std::size_t>(ib)]) <= r2) {
          out.emplace_back(std::min(ia, ib), std::max(ia, ib));
        }
      }
    }
  };
  std::size_t up = 0;
  for (std::size_t i = 0; i < n;) {
    const std::uint64_t key = e[i].key;
    std::size_t end = i + 1;
    while (end < n && e[end].key == key) ++end;
    for (std::size_t a = i; a + 1 < end; ++a) test(a, a + 1, a + 1, end);
    std::size_t east = end;
    while (east < n && e[east].key == key + 1) ++east;
    test(i, end, end, east);
    if (key >> 32 != 0xffffffffu) {  // the top row has no next row
      while (up < n && e[up].key < key + kRow - 1) ++up;
      std::size_t last = up;
      while (last < n && e[last].key <= key + kRow + 1) ++last;
      test(i, end, up, last);
    }
    i = end;
  }
}

}  // namespace dtn::geo
