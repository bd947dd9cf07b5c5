// Temporal stability of communication patterns (paper Fig. 5): how much of
// the graph persists hour over hour, and where it drifts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ccg/graph/comm_graph.hpp"
#include "ccg/graph/delta.hpp"

namespace ccg {

/// Stability of one consecutive-window transition.
struct TransitionStability {
  TimeWindow from;
  TimeWindow to;
  double edge_jaccard = 0.0;
  double byte_weighted_overlap = 0.0;
  double node_jaccard = 0.0;
  std::size_t edges_added = 0;
  std::size_t edges_removed = 0;
  std::size_t edges_changed = 0;
};

struct SeriesStability {
  std::vector<TransitionStability> transitions;
  double mean_edge_jaccard = 0.0;
  double min_edge_jaccard = 1.0;
  double mean_byte_overlap = 0.0;

  std::string summary() const;
};

/// Stability of the transition from `before` to the next window `after`.
TransitionStability transition_stability(const CommGraph& before,
                                         const CommGraph& after,
                                         double volume_change_factor = 4.0);

/// Analyzes a chronological series of graphs (>= 2).
SeriesStability analyze_series(const std::vector<CommGraph>& series,
                               double volume_change_factor = 4.0);

/// Renders a coarse ASCII heat map of a graph's byte adjacency (log scale,
/// the paper's Fig. 4 visual) down-sampled to `cells` x `cells`, nodes
/// ordered by NodeKey so consecutive hours align.
std::string ascii_adjacency(const CommGraph& graph, std::size_t cells = 32);

}  // namespace ccg
