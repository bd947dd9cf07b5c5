// Louvain community detection (Blondel et al. 2008) over an arbitrary
// weighted undirected graph.
//
// Used three ways in this library, mirroring the paper:
//  1. On the Jaccard-scored similarity clique -> the paper's
//     auto-segmentation (Fig. 1).
//  2. Directly on the communication graph weighted by connection-minutes
//     or bytes -> the modularity baselines of Fig. 3(c)/(d).
//  3. On SimRank / SimRank++ similarity matrices -> Fig. 3(a)/(b).
#pragma once

#include <cstdint>
#include <vector>

namespace ccg {

/// Compact weighted undirected graph for clustering algorithms.
/// Parallel edge entries are allowed (weights add).
class WeightedGraph {
 public:
  explicit WeightedGraph(std::size_t n) : adjacency_(n) {}

  std::size_t size() const { return adjacency_.size(); }

  /// Adds weight on the undirected (a, b) edge. Precondition: a != b,
  /// weight >= 0. Zero weights are dropped.
  void add_edge(std::uint32_t a, std::uint32_t b, double weight);

  /// Sizes n's neighbour list for `count` entries: a caller that knows the
  /// final degrees adds its edges without regrowing the lists.
  void reserve(std::uint32_t n, std::size_t count) { adjacency_[n].reserve(count); }

  const std::vector<std::pair<std::uint32_t, double>>& neighbors(std::uint32_t n) const {
    return adjacency_[n];
  }

  double total_weight() const { return total_weight_; }  // sum of edge weights
  double strength(std::uint32_t n) const;                // weighted degree

 private:
  std::vector<std::vector<std::pair<std::uint32_t, double>>> adjacency_;
  double total_weight_ = 0.0;
};

struct LouvainResult {
  std::vector<std::uint32_t> labels;  // community per node, 0..k-1
  std::size_t community_count = 0;
  double modularity = 0.0;
  int levels = 0;  // aggregation levels performed
};

struct LouvainOptions {
  /// Resolution gamma: > 1 favors more, smaller communities.
  double resolution = 1.0;
  /// Node visiting order is shuffled with this seed each pass; Louvain's
  /// result is order-dependent, the seed makes it reproducible.
  std::uint64_t seed = 17;
  int max_passes_per_level = 32;
};

/// Runs hierarchical Louvain to a local modularity optimum.
LouvainResult louvain_cluster(const WeightedGraph& graph, LouvainOptions options = {});

/// Modularity of a given labeling under resolution gamma.
double modularity(const WeightedGraph& graph, const std::vector<std::uint32_t>& labels,
                  double resolution = 1.0);

}  // namespace ccg
