#include "sim/buffer.hpp"

namespace dtn::sim {

Buffer::Buffer(std::int64_t capacity_bytes) : capacity_(capacity_bytes) {}

void Buffer::reset(std::int64_t capacity_bytes) {
  capacity_ = capacity_bytes;
  used_ = 0;
  count_ = 0;
  // Thread every existing slot (live or vacant) onto the free list so the
  // slab is recycled rather than freed.
  head_ = tail_ = kNoHandle;
  free_head_ = kNoHandle;
  for (std::size_t i = slots_.size(); i-- > 0;) {
    Slot& slot = slots_[i];
    slot.sm.msg.id = kInvalidMsg;
    slot.prev = kNoHandle;
    slot.next = free_head_;
    free_head_ = static_cast<Handle>(i);
  }
  index_.clear();
}

bool Buffer::contains(MsgId id) const noexcept { return index_find(id) != kNoHandle; }

StoredMessage* Buffer::find(MsgId id) {
  const Handle h = index_find(id);
  return h == kNoHandle ? nullptr : &slots_[static_cast<std::size_t>(h)].sm;
}

const StoredMessage* Buffer::find(MsgId id) const {
  return const_cast<Buffer*>(this)->find(id);
}

void Buffer::insert(StoredMessage sm) {
  assert(sm.msg.id >= 0 && "message ids must be non-negative");
  assert(!contains(sm.msg.id));
  assert(fits(sm.msg));
  used_ += sm.msg.size_bytes;
  ++count_;
  Handle h;
  if (free_head_ != kNoHandle) {
    h = free_head_;
    free_head_ = slots_[static_cast<std::size_t>(h)].next;
  } else {
    h = static_cast<Handle>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[static_cast<std::size_t>(h)];
  slot.sm = std::move(sm);
  slot.prev = tail_;
  slot.next = kNoHandle;
  if (tail_ != kNoHandle) {
    slots_[static_cast<std::size_t>(tail_)].next = h;
  } else {
    head_ = h;
  }
  tail_ = h;
  index_.find_or_insert(slot.sm.msg.id, h);  // absent per precondition
}

bool Buffer::erase(MsgId id) {
  const Handle h = index_find(id);
  if (h == kNoHandle) return false;
  Slot& slot = slots_[static_cast<std::size_t>(h)];
  used_ -= slot.sm.msg.size_bytes;
  --count_;
  if (slot.prev != kNoHandle) {
    slots_[static_cast<std::size_t>(slot.prev)].next = slot.next;
  } else {
    head_ = slot.next;
  }
  if (slot.next != kNoHandle) {
    slots_[static_cast<std::size_t>(slot.next)].prev = slot.prev;
  } else {
    tail_ = slot.prev;
  }
  index_.erase(id);
  slot.sm.msg.id = kInvalidMsg;  // make stale reads obvious
  slot.prev = kNoHandle;
  slot.next = free_head_;
  free_head_ = h;
  return true;
}

MsgId Buffer::oldest() const noexcept {
  return head_ == kNoHandle ? kInvalidMsg
                            : slots_[static_cast<std::size_t>(head_)].sm.msg.id;
}

MsgId Buffer::newest() const noexcept {
  return tail_ == kNoHandle ? kInvalidMsg
                            : slots_[static_cast<std::size_t>(tail_)].sm.msg.id;
}

Buffer::Handle Buffer::handle_of(MsgId id) const noexcept { return index_find(id); }

Buffer::Handle Buffer::front_handle() const noexcept { return head_; }

Buffer::Handle Buffer::next_handle(Handle h) const noexcept {
  return slots_[static_cast<std::size_t>(h)].next;
}

const StoredMessage& Buffer::get(Handle h) const noexcept {
  return slots_[static_cast<std::size_t>(h)].sm;
}

StoredMessage& Buffer::get(Handle h) noexcept {
  return slots_[static_cast<std::size_t>(h)].sm;
}

void Buffer::expired_into(double t, std::vector<MsgId>& out) const {
  out.clear();
  for (const StoredMessage& sm : *this) {
    if (sm.msg.expired_at(t)) out.push_back(sm.msg.id);
  }
}

}  // namespace dtn::sim
