// Router interface — the extension point every protocol implements
// (modeled on the ONE simulator's MessageRouter). The World invokes the
// on_* callbacks; routers react by enqueuing transfers through send_copy().
//
// Transfer semantics: send_copy(peer, id, r_recv, r_deduct) queues a
// bandwidth-limited transfer on the (self, peer) connection. On completion
// the receiver gains a copy holding `r_recv` replicas (merged into an
// existing copy if present) and the sender's copy loses `r_deduct` replicas
// (erased at <= 0). This one primitive expresses every protocol's action:
//   replicate (epidemic/MaxProp/PRoPHET):   r_recv=1, r_deduct=0
//   spray half (Spray-and-Wait binary):     r_recv=floor(M/2), r_deduct=same
//   proportional split (EBR/EER/CR):        r_recv=r, r_deduct=r
//   forward single copy (focus/EER single): r_recv=1, r_deduct=1
//   hand over everything (CR to dest comm): r_recv=M, r_deduct=M
#pragma once

#include <string>
#include <vector>

#include "sim/buffer.hpp"
#include "sim/message.hpp"

namespace dtn::sim {

class World;

class Router {
 public:
  virtual ~Router() = default;

  /// Called once by the World when the node is added.
  void attach(World* world, NodeIdx self);

  /// Restores the router to its just-constructed (and attached) state —
  /// World::reseed() reuses router instances across simulation runs.
  /// Stateless protocols inherit this no-op; stateful ones must clear ALL
  /// learned state (retaining container capacity where possible) so a
  /// reseeded run is bit-identical to a freshly built one (enforced per
  /// protocol by integration_sweep_test's world-reuse differential).
  virtual void reset() {}

  [[nodiscard]] virtual std::string name() const = 0;

  /// Replica quota attached to messages originating at this node (λ for
  /// quota-based protocols; 1 for pure replication / forwarding schemes).
  [[nodiscard]] virtual int initial_replicas() const { return 1; }

  /// A bidirectional contact with `peer` has come up. Both endpoints get
  /// the callback (lower node id first, deterministically).
  virtual void on_contact_up(NodeIdx /*peer*/) {}
  virtual void on_contact_down(NodeIdx /*peer*/) {}

  /// A message originated here and is already stored in the local buffer.
  virtual void on_message_created(const Message& /*m*/) {}

  /// A relayed copy arrived and was stored locally (not the destination).
  virtual void on_message_received(const StoredMessage& /*sm*/, NodeIdx /*from*/) {}

  /// A transfer this node initiated completed. `delivered` is true when
  /// `to` was the destination and the message was still within TTL.
  virtual void on_transfer_success(const Message& /*m*/, NodeIdx /*to*/,
                                   int /*replicas_sent*/, bool /*delivered*/) {}

  /// Either endpoint of a delivery learns about it (enables ack schemes).
  virtual void on_delivered(const Message& /*m*/) {}

  /// Buffer overflow: pick the id of the stored copy to evict. Never called
  /// with an empty buffer. Default: oldest received (ONE's default policy).
  [[nodiscard]] virtual MsgId choose_drop_victim(const Buffer& buffer) const;

  /// Periodic housekeeping (EV window rollover etc.), every control tick.
  virtual void on_tick(double /*now*/) {}

 protected:
  [[nodiscard]] World& world() noexcept { return *world_; }
  [[nodiscard]] const World& world() const noexcept { return *world_; }
  [[nodiscard]] NodeIdx self() const noexcept { return self_; }

  // ---- conveniences forwarded to the World (defined in router.cpp to
  // avoid a circular include) ----
  [[nodiscard]] double now() const;
  [[nodiscard]] Buffer& buffer();
  [[nodiscard]] const Buffer& buffer() const;
  /// Queues a transfer; returns false if it was refused (already queued,
  /// message missing/expired, peer not in contact).
  bool send_copy(NodeIdx peer, MsgId id, int r_recv, int r_deduct);
  /// True if `peer` stores the message or is already scheduled to get it.
  [[nodiscard]] bool peer_has(NodeIdx peer, MsgId id) const;
  /// Peers currently in contact with this node, ascending. Zero-copy view
  /// of the World's adjacency index; valid for the whole callback (contact
  /// churn only happens between router callbacks) and not invalidated by
  /// send_copy() / peer_has().
  [[nodiscard]] const std::vector<NodeIdx>& contacts() const;
  /// Charges protocol control traffic (routing-table exchange) to metrics.
  void charge_control_bytes(std::int64_t bytes);

 private:
  World* world_ = nullptr;
  NodeIdx self_ = -1;
};

}  // namespace dtn::sim
