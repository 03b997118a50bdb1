#include "routing/cr.hpp"

#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

#include "core/dijkstra.hpp"
#include "core/estimators.hpp"
#include "core/md_builder.hpp"
#include "sim/world.hpp"

namespace dtn::routing {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

CrRouter::CrRouter(CrParams params,
                   std::shared_ptr<const core::CommunityTable> communities)
    : params_(params), communities_(std::move(communities)), history_(params.window) {
  assert(communities_ != nullptr);
}

void CrRouter::ensure_state() {
  if (!mi_intra_) mi_intra_ = std::make_unique<core::MiMatrix>(world().node_count());
}

int CrRouter::community() const { return communities_->community_of(self()); }

double CrRouter::enec(double t, double tau) const {
  return core::expected_encountering_communities(history_, *communities_, community(),
                                                 t, tau);
}

double CrRouter::community_probability(int community, double t, double tau) const {
  return core::community_meet_probability(history_, *communities_, community, t, tau);
}

double CrRouter::intra_eev(double t, double tau) const {
  return core::expected_encounter_value_intra(history_, *communities_, self(), t, tau);
}

double CrRouter::intra_memd(sim::NodeIdx dst, double t) {
  ensure_state();
  const int own = community();
  const auto& members = communities_->members(own);
  // Position of self and dst in the member sub-index.
  sim::NodeIdx self_pos = -1;
  sim::NodeIdx dst_pos = -1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i] == self()) self_pos = static_cast<sim::NodeIdx>(i);
    if (members[i] == dst) dst_pos = static_cast<sim::NodeIdx>(i);
  }
  if (self_pos < 0 || dst_pos < 0) return kInf;
  const std::int64_t bucket = core::memd_time_bucket(t);
  if (mi_intra_->version() != intra_dist_version_ || bucket != intra_dist_bucket_) {
    const std::vector<double> md = core::build_md_intra(
        *mi_intra_, history_, *communities_, own, self(), t);
    intra_dist_ = core::dijkstra_dense(md, static_cast<sim::NodeIdx>(members.size()),
                                       self_pos)
                      .dist;
    intra_dist_version_ = mi_intra_->version();
    intra_dist_bucket_ = bucket;
  }
  return intra_dist_.at(static_cast<std::size_t>(dst_pos));
}

void CrRouter::record_meeting(sim::NodeIdx peer, double t) {
  history_.record_contact(peer, t);
  // MI' only tracks own-community pairs.
  if (communities_->same_community(self(), peer)) {
    const core::PairHistory* ph = history_.pair(peer);
    if (ph != nullptr && !ph->intervals.empty()) {
      mi_intra_->set_entry(self(), peer, ph->average_interval(), t);
    }
  }
}

void CrRouter::on_contact_up(sim::NodeIdx peer) {
  ensure_state();
  const double t = now();
  record_meeting(peer, t);

  auto* peer_router = dynamic_cast<CrRouter*>(&world().router_of(peer));
  if (peer_router != nullptr) {
    peer_router->ensure_state();
    // Intra-community MI' exchange only happens between same-community
    // nodes (Algorithm 4 line 2) — this is CR's overhead saving vs EER.
    if (communities_->same_community(self(), peer) && self() < peer) {
      // A row of MI' is only meaningful over the community members, so the
      // handshake (row timestamps) and row payloads are community-sized —
      // this is exactly CR's overhead saving vs EER's full-n exchange.
      const auto member_count = static_cast<std::int64_t>(
          communities_->members(community()).size());
      charge_control_bytes(2 * member_count * 8);
      const int to_self = mi_intra_->merge_from(*peer_router->mi_intra_);
      const int to_peer = peer_router->mi_intra_->merge_from(*mi_intra_);
      charge_control_bytes((to_self + to_peer) * (member_count * 8 + 8));
    }
    charge_control_bytes(
        static_cast<std::int64_t>(buffer().count() + world().buffer_of(peer).count()) * 8);
  }

  // Algorithm 2: dispatch each buffered message to inter- or intra-phase.
  for (const auto& sm : buffer()) {
    route_one(sm, peer, peer_router, t);
  }
}

void CrRouter::route_one(const sim::StoredMessage& sm, sim::NodeIdx peer,
                         CrRouter* peer_router, double t) {
  if (sm.msg.expired_at(t)) return;
  if (sm.msg.dst == peer) {
    send_copy(peer, sm.msg.id, 1, 0);
    return;
  }
  const int dst_community = communities_->community_of(sm.msg.dst);
  if (community() != dst_community) {
    inter_community_route(sm, peer, peer_router, t);
  } else {
    intra_community_route(sm, peer, peer_router, t);
  }
}

void CrRouter::on_message_created(const sim::Message& m) {
  ensure_state();
  const sim::StoredMessage* sm = buffer().find(m.id);
  if (sm == nullptr) return;
  const std::vector<sim::NodeIdx>& peers = contacts();  // zero-copy view
  for (const sim::NodeIdx peer : peers) {
    auto* peer_router = dynamic_cast<CrRouter*>(&world().router_of(peer));
    route_one(*sm, peer, peer_router, now());
  }
}

void CrRouter::on_message_received(const sim::StoredMessage& sm,
                                   sim::NodeIdx /*from*/) {
  ensure_state();
  const std::vector<sim::NodeIdx>& peers = contacts();  // zero-copy view
  for (const sim::NodeIdx peer : peers) {
    auto* peer_router = dynamic_cast<CrRouter*>(&world().router_of(peer));
    route_one(sm, peer, peer_router, now());
  }
}

void CrRouter::inter_community_route(const sim::StoredMessage& sm, sim::NodeIdx peer,
                                     CrRouter* peer_router, double t) {
  const int dst_community = communities_->community_of(sm.msg.dst);
  // Algorithm 3 line 1: encounter inside the destination community gets
  // everything.
  if (communities_->community_of(peer) == dst_community) {
    if (!peer_has(peer, sm.msg.id)) {
      send_copy(peer, sm.msg.id, sm.replicas, sm.replicas);
    }
    return;
  }
  if (peer_router == nullptr || peer_has(peer, sm.msg.id)) return;

  const double tau = params_.alpha * sm.msg.remaining_ttl(t);
  if (sm.replicas > 1) {
    // Algorithm 3 line 7: ENEC-proportional split.
    const double enec_i = enec(t, tau);
    const double enec_j = peer_router->enec(t, tau);
    charge_control_bytes(8);
    const double denom = enec_i + enec_j;
    int give;
    if (denom <= 0.0) {
      give = sm.replicas / 2;  // same degenerate-split policy as EER
    } else {
      give = static_cast<int>(
          std::ceil(static_cast<double>(sm.replicas) * enec_j / denom));
      if (give > sm.replicas) give = sm.replicas;
    }
    if (give >= 1) send_copy(peer, sm.msg.id, give, give);
  } else {
    // Algorithm 3 line 10: forward toward the better community-finder.
    const double p_ic = community_probability(dst_community, t, tau);
    const double p_jc = peer_router->community_probability(dst_community, t, tau);
    charge_control_bytes(8);
    if (p_ic < p_jc) send_copy(peer, sm.msg.id, 1, 1);
  }
}

void CrRouter::intra_community_route(const sim::StoredMessage& sm, sim::NodeIdx peer,
                                     CrRouter* peer_router, double t) {
  // Algorithm 4 line 1: only same-community encounters participate.
  if (!communities_->same_community(self(), peer)) return;
  if (peer_router == nullptr || peer_has(peer, sm.msg.id)) return;

  const double tau = params_.alpha * sm.msg.remaining_ttl(t);
  if (sm.replicas > 1) {
    // Algorithm 4 line 7: intra-community EEV' split.
    const double eev_i = intra_eev(t, tau);
    const double eev_j = peer_router->intra_eev(t, tau);
    charge_control_bytes(8);
    const double denom = eev_i + eev_j;
    int give;
    if (denom <= 0.0) {
      give = sm.replicas / 2;
    } else {
      give = static_cast<int>(
          std::ceil(static_cast<double>(sm.replicas) * eev_j / denom));
      if (give > sm.replicas) give = sm.replicas;
    }
    if (give >= 1) send_copy(peer, sm.msg.id, give, give);
  } else {
    // Algorithm 4 line 9: intra-community MEMD' comparison.
    const double memd_i = intra_memd(sm.msg.dst, t);
    const double memd_j = peer_router->intra_memd(sm.msg.dst, t);
    charge_control_bytes(8);
    if (memd_i > memd_j) send_copy(peer, sm.msg.id, 1, 1);
  }
}

}  // namespace dtn::routing
