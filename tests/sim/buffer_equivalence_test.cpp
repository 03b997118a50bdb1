// Differential proof that the slab Buffer is observably identical to a
// plain std::list + unordered_map store: the reference implementation
// lives inside this test and is driven through the exact same randomized
// insert / erase / evict / expire / mutate sequences as the slab Buffer,
// with the full observable state compared after every operation. Whole
// simulations over the slab, eviction included, are pinned by the metrics
// golden (harness_metrics_golden_test).
#include <algorithm>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "../test_support.hpp"
#include "sim/buffer.hpp"
#include "util/rng.hpp"

namespace dtn::sim {
namespace {

using test::make_message;

/// A list + map message store: the simplest correct Buffer, as the oracle.
class ReferenceBuffer {
 public:
  explicit ReferenceBuffer(std::int64_t capacity_bytes) : capacity_(capacity_bytes) {}

  [[nodiscard]] std::int64_t used() const noexcept { return used_; }
  [[nodiscard]] std::size_t count() const noexcept { return index_.size(); }
  [[nodiscard]] bool has(MsgId id) const { return index_.count(id) > 0; }
  [[nodiscard]] bool fits(const Message& m) const noexcept {
    return m.size_bytes <= capacity_ - used_;
  }
  [[nodiscard]] StoredMessage* find(MsgId id) {
    const auto it = index_.find(id);
    return it == index_.end() ? nullptr : &*it->second;
  }
  void insert(StoredMessage sm) {
    used_ += sm.msg.size_bytes;
    const MsgId id = sm.msg.id;
    store_.push_back(std::move(sm));
    index_.emplace(id, std::prev(store_.end()));
  }
  bool erase(MsgId id) {
    const auto it = index_.find(id);
    if (it == index_.end()) return false;
    used_ -= it->second->msg.size_bytes;
    store_.erase(it->second);
    index_.erase(it);
    return true;
  }
  [[nodiscard]] MsgId oldest() const {
    return store_.empty() ? Buffer::kInvalidMsg : store_.front().msg.id;
  }
  [[nodiscard]] std::vector<MsgId> expired_ids(double t) const {
    std::vector<MsgId> out;
    for (const auto& sm : store_) {
      if (sm.msg.expired_at(t)) out.push_back(sm.msg.id);
    }
    return out;
  }
  [[nodiscard]] const std::list<StoredMessage>& messages() const noexcept {
    return store_;
  }

 private:
  std::int64_t capacity_;
  std::int64_t used_ = 0;
  std::list<StoredMessage> store_;
  std::unordered_map<MsgId, std::list<StoredMessage>::iterator> index_;
};

/// Full observable-state comparison: counters, byte accounting, membership,
/// insertion order, per-copy payload, oldest, and the expiry scan.
void expect_equivalent(const Buffer& buf, const ReferenceBuffer& ref, double now) {
  ASSERT_EQ(buf.count(), ref.count());
  ASSERT_EQ(buf.used(), ref.used());
  ASSERT_EQ(buf.oldest(), ref.oldest());
  auto it = buf.begin();
  for (const StoredMessage& expected : ref.messages()) {
    ASSERT_NE(it, buf.end());
    ASSERT_EQ(it->msg.id, expected.msg.id);
    ASSERT_EQ(it->msg.size_bytes, expected.msg.size_bytes);
    ASSERT_EQ(it->replicas, expected.replicas);
    ASSERT_EQ(it->hop_count, expected.hop_count);
    ASSERT_EQ(it->received_at, expected.received_at);
    ASSERT_TRUE(buf.contains(expected.msg.id));
    ++it;
  }
  ASSERT_EQ(it, buf.end());
  std::vector<MsgId> expired;
  buf.expired_into(now, expired);
  ASSERT_EQ(expired, ref.expired_ids(now));
}

StoredMessage random_stored(util::Pcg32& rng, MsgId id, double now) {
  StoredMessage sm;
  // Sizes 1-40 KB against a 256 KB capacity: a few dozen live messages,
  // constant slot recycling, frequent full-buffer evictions.
  sm.msg = make_message(id, 0, 1, now, 20.0 + rng.next_double() * 200.0,
                        1 + static_cast<std::int64_t>(rng.next_u32() % 40));
  sm.replicas = 1 + static_cast<int>(rng.next_u32() % 16);
  sm.hop_count = static_cast<int>(rng.next_u32() % 8);
  sm.received_at = now;
  return sm;
}

TEST(BufferEquivalence, RandomChurnMatchesReferenceStore) {
  util::Pcg32 rng(2026, 30);
  constexpr std::int64_t kCapacity = 256 * 1024;
  Buffer buf(kCapacity);
  ReferenceBuffer ref(kCapacity);
  std::vector<MsgId> live;  // ids currently stored, insertion order
  MsgId next_id = 0;
  double now = 0.0;
  for (int op = 0; op < 40000; ++op) {
    now += rng.next_double() * 2.0;
    switch (rng.next_u32() % 6) {
      case 0:
      case 1: {  // insert, evicting oldest-first like World::make_room
        StoredMessage sm = random_stored(rng, next_id++, now);
        while (!buf.fits(sm.msg) && !live.empty()) {
          const MsgId victim = buf.oldest();
          ASSERT_TRUE(buf.erase(victim));
          ASSERT_TRUE(ref.erase(victim));
          live.erase(std::find(live.begin(), live.end(), victim));
        }
        if (buf.fits(sm.msg)) {
          live.push_back(sm.msg.id);
          ref.insert(sm);
          buf.insert(std::move(sm));
        }
        break;
      }
      case 2: {  // erase a random live id
        if (live.empty()) break;
        const std::size_t pick =
            static_cast<std::size_t>(rng.next_u32()) % live.size();
        const MsgId id = live[pick];
        ASSERT_TRUE(buf.erase(id));
        ASSERT_TRUE(ref.erase(id));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        break;
      }
      case 3: {  // erase an id that was never stored / already gone
        const MsgId id = next_id + static_cast<MsgId>(rng.next_u32() % 100);
        ASSERT_EQ(buf.erase(id + 1000000), ref.erase(id + 1000000));
        break;
      }
      case 4: {  // expiry sweep, exactly like World::sweep_expired
        std::vector<MsgId> expired;
        buf.expired_into(now, expired);
        for (const MsgId id : expired) {
          ASSERT_TRUE(buf.erase(id));
          ASSERT_TRUE(ref.erase(id));
          live.erase(std::find(live.begin(), live.end(), id));
        }
        break;
      }
      case 5: {  // in-place replica update through find()
        if (live.empty()) break;
        const MsgId id = live[static_cast<std::size_t>(rng.next_u32()) % live.size()];
        const int delta = static_cast<int>(rng.next_u32() % 5);
        buf.find(id)->replicas += delta;
        ref.find(id)->replicas += delta;
        break;
      }
    }
    if ((op & 63) == 0 || op > 39900) {
      expect_equivalent(buf, ref, now);
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "diverged at op " << op;
      }
    }
  }
  expect_equivalent(buf, ref, now);
}

}  // namespace
}  // namespace dtn::sim
