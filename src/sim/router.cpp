#include "sim/router.hpp"

#include "sim/world.hpp"

namespace dtn::sim {

void Router::attach(World* world, NodeIdx self) {
  world_ = world;
  self_ = self;
}

MsgId Router::choose_drop_victim(const Buffer& buffer) const {
  return buffer.oldest();
}

double Router::now() const { return world_->now(); }

Buffer& Router::buffer() { return world_->buffer_of(self_); }

const Buffer& Router::buffer() const { return world_->buffer_of(self_); }

bool Router::send_copy(NodeIdx peer, MsgId id, int r_recv, int r_deduct) {
  return world_->enqueue_transfer(self_, peer, id, r_recv, r_deduct);
}

bool Router::peer_has(NodeIdx peer, MsgId id) const {
  return world_->peer_has(peer, id);
}

const std::vector<NodeIdx>& Router::contacts() const {
  return world_->neighbors_of(self_);
}

void Router::charge_control_bytes(std::int64_t bytes) {
  world_->metrics().add_control_bytes(bytes);
}

}  // namespace dtn::sim
