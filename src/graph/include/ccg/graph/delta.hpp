// Graph deltas: "what changed?" between two windows (paper §1 'Dynamic'),
// the primitive under temporal-stability analysis (Fig. 5) and the
// higher-order policy checks of §2.1.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ccg/graph/comm_graph.hpp"

namespace ccg {

/// One changed edge between two windows, identified by endpoint keys so the
/// comparison is stable across graphs with different NodeId assignments.
struct EdgeChange {
  NodeKey a;
  NodeKey b;
  std::uint64_t bytes_before = 0;
  std::uint64_t bytes_after = 0;

  double ratio() const {
    return bytes_before == 0
               ? 0.0
               : static_cast<double>(bytes_after) / static_cast<double>(bytes_before);
  }
};

struct GraphDelta {
  std::vector<NodeKey> nodes_added;
  std::vector<NodeKey> nodes_removed;
  std::vector<EdgeChange> edges_added;
  std::vector<EdgeChange> edges_removed;
  /// Edges present in both whose byte volume changed by more than the
  /// comparison's volume_change_factor.
  std::vector<EdgeChange> edges_changed;

  std::size_t edges_stable = 0;  // present in both, within the factor

  /// Jaccard similarity of the two edge sets: |common| / |union|. The
  /// paper's Fig. 5 observation ("many patterns are consistent") shows up
  /// as a high value hour over hour.
  double edge_jaccard = 0.0;

  /// Fraction of the 'after' graph's bytes carried on edges that already
  /// existed in 'before' — volume-weighted stability.
  double byte_weighted_overlap = 0.0;

  std::string summary() const;
};

/// Compares two graphs of the same facet. `volume_change_factor` f flags an
/// edge as changed when after > f * before or after < before / f.
GraphDelta diff_graphs(const CommGraph& before, const CommGraph& after,
                       double volume_change_factor = 4.0);

// --- exact patches ----------------------------------------------------------
//
// GraphDelta above is the *analytic* delta: lossy by design (it keeps byte
// totals, not full edge stats). GraphPatch is its lossless sibling — the
// substrate of the snapshot store's delta frames: apply_patch(before,
// make_patch(before, after)) reproduces `after` exactly, including NodeId
// and EdgeId assignment order, so downstream analyses (whose tie-breaking
// can be iteration-order sensitive) behave identically on replayed graphs.

struct GraphPatch {
  /// Window of the target ('after') graph.
  TimeWindow window;

  /// One entry per target NodeId, in NodeId order.
  struct Node {
    /// NodeId in 'before' carrying the same key, or -1 for a new node.
    std::int64_t ref = -1;
    NodeKey key;  // meaningful only when ref < 0
    /// Target-side attributes (carried for referenced nodes too: flags can
    /// flip between windows, e.g. a peer becomes monitored).
    bool monitored = false;
    std::uint32_t collapsed_members = 0;
  };

  /// One entry per target EdgeId, in EdgeId order.
  struct Edge {
    /// EdgeId in 'before' joining the same node keys, or -1 for a new edge.
    /// Referenced edges derive their endpoints from 'before' through the
    /// node mapping; new edges carry target NodeIds explicitly.
    std::int64_t ref = -1;
    NodeId a = kInvalidNode;  // meaningful only when ref < 0, a < b
    NodeId b = kInvalidNode;
    /// Full target stats in the target edge's a-to-b orientation.
    EdgeStats stats;
  };

  std::vector<Node> nodes;
  std::vector<Edge> edges;
};

/// Builds the exact patch taking `before` to `after`. A keyframe is the
/// degenerate case make_patch(CommGraph{}, g): every node and edge is new.
GraphPatch make_patch(const CommGraph& before, const CommGraph& after);

/// Reconstructs the target graph. Returns nullopt when the patch is
/// inconsistent with `before` (dangling refs, duplicate keys or edges) —
/// the store uses this to reject frames applied to the wrong base.
std::optional<CommGraph> apply_patch(const CommGraph& before,
                                     const GraphPatch& patch);

/// Deep structural equality including NodeId/EdgeId assignment order — the
/// invariant apply_patch guarantees and the store's tests assert.
bool graphs_identical(const CommGraph& a, const CommGraph& b);

}  // namespace ccg
