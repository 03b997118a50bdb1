#include "geo/spatial_grid.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace dtn::geo {

namespace {

std::int64_t cell_coord(double v, double inv_cell) noexcept {
  return static_cast<std::int64_t>(std::floor(v * inv_cell));
}

// Forward-neighbor offsets: E, NE, N, NW (matching Cell::fwd slots). Every
// unordered cell pair is enumerated exactly once via self + these four.
constexpr std::pair<std::int64_t, std::int64_t> kForward[4] = {
    {1, 0}, {1, 1}, {0, 1}, {-1, 1}};

}  // namespace

SpatialGrid::SpatialGrid(double cell_size)
    : cell_(cell_size > 0.0 ? cell_size : 1.0), inv_cell_(1.0 / cell_) {}

SpatialGrid::CellKey SpatialGrid::make_key(std::int64_t cx, std::int64_t cy) noexcept {
  // Interleave the two 32-bit (wrapped) cell coordinates into one key.
  const auto ux = static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx));
  const auto uy = static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
  return (ux << 32) | uy;
}

SpatialGrid::CellKey SpatialGrid::key_for(Vec2 pos) const noexcept {
  return make_key(cell_coord(pos.x, inv_cell_), cell_coord(pos.y, inv_cell_));
}

std::uint32_t SpatialGrid::cell_for_create(CellKey key) {
  if (const auto it = index_.find(key); it != index_.end()) return it->second;
  std::uint32_t slot;
  if (!free_cells_.empty()) {
    slot = free_cells_.back();
    free_cells_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(cells_.size());
    cells_.emplace_back();
  }
  Cell& cell = cells_[slot];
  cell.key = key;
  cell.alive = true;
  cell.emptied_epoch = epoch_;
  assert(cell.size == 0);
  const auto cx = static_cast<std::int64_t>(static_cast<std::int32_t>(key >> 32));
  const auto cy = static_cast<std::int64_t>(static_cast<std::int32_t>(key & 0xffffffffu));
  // Wire the cached neighbor links in both directions: my forward cells,
  // and the backward cells whose forward slot of the same direction is me.
  for (int d = 0; d < 4; ++d) {
    const auto [dx, dy] = kForward[d];
    const auto fwd_it = index_.find(make_key(cx + dx, cy + dy));
    cell.fwd[d] = fwd_it != index_.end() ? fwd_it->second : kNone;
    const auto back_it = index_.find(make_key(cx - dx, cy - dy));
    if (back_it != index_.end()) cells_[back_it->second].fwd[d] = slot;
  }
  index_.emplace(key, slot);
  ++created_since_compact_;
  return slot;
}

void SpatialGrid::add_member(std::uint32_t cell_idx, std::int32_t id) {
  Cell& cell = cells_[cell_idx];
  where_[static_cast<std::size_t>(id)] = Locator{cell_idx, cell.size};
  if (cell.size < Cell::kInline) {
    cell.inline_ids[cell.size] = id;
  } else {
    cell.overflow.push_back(id);
  }
  if (cell.size == 0) {
    // 0 -> 1 transition: enter the occupied index the pair sweep walks.
    cell.occ_idx = static_cast<std::uint32_t>(occupied_.size());
    occupied_.push_back(cell_idx);
  }
  ++cell.size;
  ++count_;
}

void SpatialGrid::remove_member(std::uint32_t cell_idx, std::uint32_t slot) {
  Cell& cell = cells_[cell_idx];
  const std::uint32_t last = cell.size - 1;
  if (slot != last) {
    cell.id_at(slot) = cell.id_at(last);
    where_[static_cast<std::size_t>(cell.id_at(slot))].slot = slot;
  }
  if (last >= Cell::kInline) cell.overflow.pop_back();
  --cell.size;
  if (cell.size == 0) {
    cell.emptied_epoch = epoch_;
    // 1 -> 0 transition: swap-remove from the occupied index.
    const std::uint32_t tail = occupied_.back();
    occupied_[cell.occ_idx] = tail;
    cells_[tail].occ_idx = cell.occ_idx;
    occupied_.pop_back();
    cell.occ_idx = kNone;
  }
  --count_;
}

void SpatialGrid::clear() {
  // Keep cell storage and capacities: the grid is rebuilt every pass with a
  // similar occupancy pattern, so reusing cells avoids allocation churn.
  // Cells empty for kPruneAfter consecutive epochs are dropped so a trace
  // wandering over unbounded terrain cannot grow the structures forever.
  maintain();
  for (Cell& cell : cells_) {
    if (cell.alive && cell.size > 0) {
      cell.size = 0;
      cell.overflow.clear();
      cell.occ_idx = kNone;
      cell.emptied_epoch = epoch_;
    }
  }
  occupied_.clear();
  std::fill(where_.begin(), where_.end(), Locator{});
  count_ = 0;
}

void SpatialGrid::reset() {
  for (Cell& cell : cells_) {
    cell.size = 0;
    cell.overflow.clear();
    cell.alive = false;
    cell.key = 0;
    cell.fwd[0] = cell.fwd[1] = cell.fwd[2] = cell.fwd[3] = kNone;
    cell.occ_idx = kNone;
    cell.emptied_epoch = 0;
  }
  occupied_.clear();
  free_cells_.clear();
  free_cells_.reserve(cells_.size());
  for (std::size_t slot = cells_.size(); slot-- > 0;) {
    free_cells_.push_back(static_cast<std::uint32_t>(slot));
  }
  index_.clear();  // keeps the bucket array
  std::fill(where_.begin(), where_.end(), Locator{});
  count_ = 0;
  created_since_compact_ = 0;
}

void SpatialGrid::advance_epoch() { maintain(); }

void SpatialGrid::maintain() {
  ++epoch_;
  if (epoch_ % kPruneAfter == 0) prune_stale_cells();
  // Re-layout once enough new cells accumulated to degrade locality; after
  // the roaming area has been discovered this never fires again.
  if (created_since_compact_ > 64 && created_since_compact_ * 8 > index_.size()) {
    compact();
  }
}

void SpatialGrid::compact() {
  // Reorder cell storage row-major by (cy, cx) so most cells' forward
  // neighbors (E, NE, N, NW) are memory-adjacent: the pair sweep then
  // streams through the cache instead of chasing discovery order.
  std::vector<std::uint32_t> order;
  order.reserve(index_.size());
  for (std::uint32_t s = 0; s < cells_.size(); ++s) {
    if (cells_[s].alive) order.push_back(s);
  }
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const CellKey ka = cells_[a].key;  // (cx, cy) packed high/low
    const CellKey kb = cells_[b].key;
    const CellKey ra = (ka << 32) | (ka >> 32);  // compare as (cy, cx)
    const CellKey rb = (kb << 32) | (kb >> 32);
    return ra < rb;
  });
  std::vector<std::uint32_t> remap(cells_.size(), kNone);
  std::vector<Cell> reordered;
  reordered.reserve(order.size());
  for (std::uint32_t new_idx = 0; new_idx < order.size(); ++new_idx) {
    remap[order[new_idx]] = new_idx;
    reordered.push_back(std::move(cells_[order[new_idx]]));
  }
  cells_ = std::move(reordered);
  free_cells_.clear();
  for (auto& [key, slot] : index_) slot = remap[slot];
  for (Cell& cell : cells_) {
    for (int d = 0; d < 4; ++d) {
      if (cell.fwd[d] != kNone) cell.fwd[d] = remap[cell.fwd[d]];
    }
  }
  for (Locator& loc : where_) {
    if (loc.cell != kNone) loc.cell = remap[loc.cell];
  }
  for (std::uint32_t& slot : occupied_) slot = remap[slot];
  created_since_compact_ = 0;
}

void SpatialGrid::prune_stale_cells() {
  for (std::uint32_t slot = 0; slot < cells_.size(); ++slot) {
    Cell& cell = cells_[slot];
    if (!cell.alive || cell.size > 0 || epoch_ - cell.emptied_epoch < kPruneAfter) {
      continue;
    }
    index_.erase(cell.key);
    const auto cx = static_cast<std::int64_t>(static_cast<std::int32_t>(cell.key >> 32));
    const auto cy =
        static_cast<std::int64_t>(static_cast<std::int32_t>(cell.key & 0xffffffffu));
    for (int d = 0; d < 4; ++d) {
      const auto [dx, dy] = kForward[d];
      const auto back_it = index_.find(make_key(cx - dx, cy - dy));
      if (back_it != index_.end()) cells_[back_it->second].fwd[d] = kNone;
    }
    std::vector<std::int32_t>().swap(cell.overflow);  // actually release memory
    cell.alive = false;
    cell.key = 0;
    free_cells_.push_back(slot);
  }
}

void SpatialGrid::insert(std::int32_t id, Vec2 pos) {
  assert(id >= 0 && "ids must be non-negative");
  if (static_cast<std::size_t>(id) >= where_.size()) {
    where_.resize(static_cast<std::size_t>(id) + 1);
    pos_by_id_.resize(static_cast<std::size_t>(id) + 1);
  }
  pos_by_id_[static_cast<std::size_t>(id)] = pos;
  add_member(cell_for_create(key_for(pos)), id);
}

void SpatialGrid::update(std::int32_t id, Vec2 pos) {
  assert(id >= 0 && "ids must be non-negative");
  if (static_cast<std::size_t>(id) >= where_.size()) {
    where_.resize(static_cast<std::size_t>(id) + 1);
    pos_by_id_.resize(static_cast<std::size_t>(id) + 1);
  }
  pos_by_id_[static_cast<std::size_t>(id)] = pos;
  const Locator loc = where_[static_cast<std::size_t>(id)];
  const CellKey key = key_for(pos);
  if (loc.cell != kNone) {
    const Cell& cell = cells_[loc.cell];
    assert(cell.alive && cell.id_at(loc.slot) == id);
    if (cell.key == key) return;  // same cell: nothing to relocate
    remove_member(loc.cell, loc.slot);
  }
  add_member(cell_for_create(key), id);
}

bool SpatialGrid::remove(std::int32_t id) {
  if (id < 0 || static_cast<std::size_t>(id) >= where_.size()) return false;
  const Locator loc = where_[static_cast<std::size_t>(id)];
  if (loc.cell == kNone) return false;
  remove_member(loc.cell, loc.slot);
  where_[static_cast<std::size_t>(id)] = Locator{};
  return true;
}

std::vector<std::int32_t> SpatialGrid::query(Vec2 pos, double radius,
                                             std::int32_t exclude_id) const {
  std::vector<std::int32_t> result;
  query_into(pos, radius, result, exclude_id);
  return result;
}

void SpatialGrid::query_into(Vec2 pos, double radius, std::vector<std::int32_t>& out,
                             std::int32_t exclude_id) const {
  out.clear();
  const double r2 = radius * radius;
  const std::int64_t cx = cell_coord(pos.x, inv_cell_);
  const std::int64_t cy = cell_coord(pos.y, inv_cell_);
  const auto reach = static_cast<std::int64_t>(std::ceil(radius * inv_cell_));
  for (std::int64_t dx = -reach; dx <= reach; ++dx) {
    for (std::int64_t dy = -reach; dy <= reach; ++dy) {
      const auto it = index_.find(make_key(cx + dx, cy + dy));
      if (it == index_.end()) continue;
      const Cell& cell = cells_[it->second];
      for (std::uint32_t i = 0; i < cell.size; ++i) {
        const std::int32_t id = cell.id_at(i);
        if (id == exclude_id) continue;
        if (pos.distance2_to(pos_by_id_[static_cast<std::size_t>(id)]) <= r2) {
          out.push_back(id);
        }
      }
    }
  }
}

std::vector<std::pair<std::int32_t, std::int32_t>> SpatialGrid::all_pairs(
    double radius) const {
  // The simple reference sweep: iterate the hash index and find() each
  // forward neighbor, allocating a fresh result.
  std::vector<std::pair<std::int32_t, std::int32_t>> pairs;
  const double r2 = radius * radius;
  for (const auto& [key, slot] : index_) {
    const Cell& cell = cells_[slot];
    if (cell.size == 0) continue;
    const auto cx = static_cast<std::int64_t>(static_cast<std::int32_t>(key >> 32));
    const auto cy = static_cast<std::int64_t>(static_cast<std::int32_t>(key & 0xffffffffu));
    for (int d = -1; d < 4; ++d) {
      const bool self = d < 0;
      const Cell* other = &cell;
      if (!self) {
        const auto [dx, dy] = kForward[d];
        const auto it = index_.find(make_key(cx + dx, cy + dy));
        if (it == index_.end() || cells_[it->second].size == 0) continue;
        other = &cells_[it->second];
      }
      for (std::uint32_t i = 0; i < cell.size; ++i) {
        const std::uint32_t j_begin = self ? i + 1 : 0;
        const std::int32_t a = cell.id_at(i);
        const Vec2 pa = pos_by_id_[static_cast<std::size_t>(a)];
        for (std::uint32_t j = j_begin; j < other->size; ++j) {
          const std::int32_t b = other->id_at(j);
          if (pa.distance2_to(pos_by_id_[static_cast<std::size_t>(b)]) <= r2) {
            pairs.emplace_back(std::min(a, b), std::max(a, b));
          }
        }
      }
    }
  }
  return pairs;
}

void SpatialGrid::all_pairs_into(
    double radius, std::vector<std::pair<std::int32_t, std::int32_t>>& out) const {
  out.clear();
  const double r2 = radius * radius;
  // Fast path: walk only the occupied cells through the cached forward
  // links — no hash lookups, no allocations past `out`'s high-water mark,
  // and no time spent streaming tracked-but-empty cells (on route-bound
  // mobility those outnumber occupied cells by an order of magnitude).
  // When most tracked cells ARE occupied, the occupied list's discovery
  // order would only shuffle the compact()-sorted storage order, so dense
  // grids keep the sequential storage walk (identical pair sets either
  // way; order is unspecified per the header contract and callers sort).
  // Member positions come from the L1-resident pos_by_id_ array.
  const Vec2* pos = pos_by_id_.data();
  // Prefer the sequential storage walk only when it is genuinely dense:
  // most tracked cells occupied AND few dead high-water slots diluting the
  // storage (after reset() a small scenario can inherit a large previous
  // scenario's slab; streaming its dead slots every step would dwarf the
  // handful of live cells).
  const bool walk_all =
      occupied_.size() * 2 >= index_.size() && cells_.size() < index_.size() * 2;
  const std::size_t n_sweep = walk_all ? cells_.size() : occupied_.size();
  for (std::size_t k = 0; k < n_sweep; ++k) {
    const std::size_t ci = walk_all ? k : occupied_[k];
    if (k + 1 < n_sweep) {
      // Hide the latency of the next cell's scattered neighbor loads behind
      // this cell's pair work.
      const Cell& next = cells_[walk_all ? k + 1 : occupied_[k + 1]];
      if (next.size != 0) {
        for (int d = 0; d < 4; ++d) {
          if (next.fwd[d] != kNone) __builtin_prefetch(&cells_[next.fwd[d]]);
        }
      }
    }
    const Cell& cell = cells_[ci];
    if (cell.size == 0) continue;
    for (int d = -1; d < 4; ++d) {
      const bool self = d < 0;
      const Cell* other = &cell;
      if (!self) {
        const std::uint32_t fwd = cell.fwd[d];
        if (fwd == kNone || cells_[fwd].size == 0) continue;
        other = &cells_[fwd];
      }
      for (std::uint32_t i = 0; i < cell.size; ++i) {
        const std::uint32_t j_begin = self ? i + 1 : 0;
        const std::int32_t a = cell.id_at(i);
        const Vec2 pa = pos[static_cast<std::size_t>(a)];
        for (std::uint32_t j = j_begin; j < other->size; ++j) {
          const std::int32_t b = other->id_at(j);
          if (pa.distance2_to(pos[static_cast<std::size_t>(b)]) <= r2) {
            out.emplace_back(std::min(a, b), std::max(a, b));
          }
        }
      }
    }
  }
}

}  // namespace dtn::geo
