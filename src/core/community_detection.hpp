// Community construction (the paper's future work #2: "design the
// distributed community construction method in the CR").
//
// Two methods, both built on pairwise contact counts:
//
//  * detect_communities(...) — offline: threshold the contact-count graph
//    at `familiar_threshold` contacts and take connected components (the
//    "familiar set" construction of Hui & Crowcroft's SIMPLE, evaluated
//    globally). Produces the CommunityTable CR consumes.
//
//  * CommunityDetector — online / distributed: each node maintains its
//    familiar set (peers with >= familiar_threshold contacts) and a local
//    community; on contact, a peer joins the local community when the
//    overlap between the peer's familiar set and the local community
//    exceeds merge_ratio of the peer's familiar set (SIMPLE's admission
//    rule), after which their communities merge.
//
// The offline method is what `communities.source = detected` runs
// (harness::detect_spec_communities; the `communities` arm of
// examples/paper_figures.sh); the online detector demonstrates the
// distributed protocol and is unit-tested for agreement with the offline
// result on well-separated contact graphs.
#pragma once

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/community.hpp"

namespace dtn::core {

/// Symmetric pairwise contact counter (node ids dense in [0, n)).
class ContactCountGraph {
 public:
  explicit ContactCountGraph(NodeIdx n) : n_(n) {}

  void record(NodeIdx a, NodeIdx b, int count = 1);
  [[nodiscard]] int count(NodeIdx a, NodeIdx b) const;
  [[nodiscard]] NodeIdx node_count() const noexcept { return n_; }

 private:
  static std::uint64_t key(NodeIdx a, NodeIdx b);
  NodeIdx n_;
  std::unordered_map<std::uint64_t, int> counts_;
};

struct DetectionParams {
  int familiar_threshold = 3;  ///< contacts needed to become "familiar"
  double merge_ratio = 0.5;    ///< SIMPLE admission ratio (online detector)
};

/// Offline detection: connected components of the familiar graph. Isolated
/// nodes each get their own singleton community. Community ids are dense,
/// ordered by smallest member id.
CommunityTable detect_communities(const ContactCountGraph& graph,
                                  const DetectionParams& params);

/// Online distributed detector (one instance per node).
class CommunityDetector {
 public:
  CommunityDetector(NodeIdx self, DetectionParams params);

  /// Records one contact with `peer`; updates the familiar set.
  void record_contact(NodeIdx peer);

  /// SIMPLE merge step, run when meeting `peer` (after record_contact).
  /// Reads the peer's familiar set and community; may admit the peer and
  /// absorb its community members.
  void merge_on_contact(const CommunityDetector& peer);

  [[nodiscard]] NodeIdx self() const noexcept { return self_; }
  [[nodiscard]] const std::set<NodeIdx>& familiar_set() const noexcept {
    return familiar_;
  }
  [[nodiscard]] const std::set<NodeIdx>& local_community() const noexcept {
    return community_;
  }
  [[nodiscard]] bool is_familiar(NodeIdx peer) const { return familiar_.count(peer) > 0; }

 private:
  NodeIdx self_;
  DetectionParams params_;
  std::unordered_map<NodeIdx, int> contact_counts_;
  std::set<NodeIdx> familiar_;
  std::set<NodeIdx> community_;  ///< always contains self_
};

}  // namespace dtn::core
