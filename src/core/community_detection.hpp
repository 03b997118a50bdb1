// Community construction (the paper's future work #2: "design the
// distributed community construction method in the CR").
//
// detect_communities(...) thresholds the pairwise contact-count graph at
// `familiar_threshold` contacts and takes connected components (the
// "familiar set" construction of Hui & Crowcroft's SIMPLE, evaluated
// globally). It produces the CommunityTable CR consumes, and is what
// `communities.source = detected` runs (harness::detect_spec_communities;
// the `communities` arm of examples/paper_figures.sh).
#pragma once

#include <cstdint>
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
};

/// Offline detection: connected components of the familiar graph. Isolated
/// nodes each get their own singleton community. Community ids are dense,
/// ordered by smallest member id.
CommunityTable detect_communities(const ContactCountGraph& graph,
                                  const DetectionParams& params);

}  // namespace dtn::core
