// Temporal segment tracking (paper §2.1): "when the role of a resource
// changes — for example, when pods in kubernetes migrate or scale up or
// down, or when a software change causes VMs to behave differently — the
// µsegment labels must keep up-to-date."
//
// The tracker re-segments every window and matches the new segments to the
// previous ones by member overlap, so segment identities are stable across
// windows. Downstream, stable ids mean enforcement tags survive re-runs
// and only genuinely relabeled nodes cause rule churn.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ccg/graph/comm_graph.hpp"
#include "ccg/segmentation/auto_segment.hpp"

namespace ccg {

struct SegmentTransition {
  std::size_t matched_segments = 0;   // carried a previous identity
  std::size_t new_segments = 0;       // no predecessor above the threshold
  std::size_t retired_segments = 0;   // previous ids with no successor
  std::size_t tracked_nodes = 0;      // monitored IPs present in both windows
  std::size_t relabeled_nodes = 0;    // of those, how many switched stable id
  double label_churn = 0.0;           // relabeled / tracked

  std::string to_string() const;
};

class SegmentTracker {
 public:
  explicit SegmentTracker(
      SegmentationMethod method = SegmentationMethod::kJaccardLouvain,
      SegmentationOptions options = {},
      double match_overlap = 0.3);

  /// Segments the window, matches against the previous window's segments,
  /// and updates the stable assignment. The first call reports every
  /// segment as new and zero churn.
  SegmentTransition observe(const CommGraph& window);

  /// Monitored IP -> stable segment id, as of the last observe().
  const std::unordered_map<IpAddr, std::uint32_t>& assignment() const {
    return assignment_;
  }
  std::uint32_t next_stable_id() const { return next_stable_id_; }
  std::size_t windows_observed() const { return windows_; }

 private:
  /// The matching step: maps `seg`'s raw labels onto stable ids.
  SegmentTransition observe(const CommGraph& window, const Segmentation& seg);

  SegmentationMethod method_;
  SegmentationOptions options_;
  double match_overlap_;
  std::unordered_map<IpAddr, std::uint32_t> assignment_;
  std::uint32_t next_stable_id_ = 0;
  std::size_t windows_ = 0;
};

}  // namespace ccg
