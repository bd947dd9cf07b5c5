#include "ccg/segmentation/louvain.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "ccg/common/expect.hpp"
#include "ccg/common/rng.hpp"

namespace ccg {

void WeightedGraph::add_edge(std::uint32_t a, std::uint32_t b, double weight) {
  CCG_EXPECT(a != b);
  CCG_EXPECT(a < adjacency_.size() && b < adjacency_.size());
  CCG_EXPECT(weight >= 0.0);
  if (weight == 0.0) return;
  adjacency_[a].emplace_back(b, weight);
  adjacency_[b].emplace_back(a, weight);
  total_weight_ += weight;
}

double WeightedGraph::strength(std::uint32_t n) const {
  double s = 0.0;
  for (const auto& [peer, w] : adjacency_[n]) s += w;
  return s;
}

namespace {

/// One level of Louvain local moving. Returns the labels (renumbered dense)
/// and whether any node moved.
struct LevelResult {
  std::vector<std::uint32_t> labels;
  std::size_t community_count;
  bool improved;
};

LevelResult local_moving(const WeightedGraph& graph, double resolution,
                         Rng& rng, int max_passes,
                         const std::vector<double>& self_loops) {
  const std::size_t n = graph.size();
  double loop_total = 0.0;
  for (double s : self_loops) loop_total += s;
  const double m2 = 2.0 * (graph.total_weight() + loop_total);  // 2m

  std::vector<std::uint32_t> community(n);
  std::iota(community.begin(), community.end(), 0);
  std::vector<double> strength(n), community_strength(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    // A super-node's self-loop (intra-community weight from lower levels)
    // contributes 2w to its strength but never to weight_to, since the
    // loop moves with the node and cancels out of the gain comparison.
    strength[i] = graph.strength(i) +
                  (i < self_loops.size() ? 2.0 * self_loops[i] : 0.0);
    community_strength[i] = strength[i];
  }

  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  bool any_move = false;
  if (m2 > 0.0) {
    for (int pass = 0; pass < max_passes; ++pass) {
      // Shuffle visiting order (seeded) — standard Louvain practice.
      for (std::size_t i = n; i > 1; --i) {
        std::swap(order[i - 1], order[rng.uniform(i)]);
      }

      bool moved_this_pass = false;
      std::unordered_map<std::uint32_t, double> weight_to;
      for (const std::uint32_t node : order) {
        const std::uint32_t current = community[node];

        // Links from node to each neighboring community.
        weight_to.clear();
        for (const auto& [peer, w] : graph.neighbors(node)) {
          weight_to[community[peer]] += w;
        }

        // Remove node from its community.
        community_strength[current] -= strength[node];

        // Best gain: dQ = w_to_c/m - gamma * k_i * K_c / (2m^2)  (x2m scale).
        std::uint32_t best = current;
        double best_gain = weight_to[current] -
                           resolution * strength[node] * community_strength[current] / m2;
        for (const auto& [candidate, w] : weight_to) {
          if (candidate == current) continue;
          const double gain =
              w - resolution * strength[node] * community_strength[candidate] / m2;
          if (gain > best_gain + 1e-12) {
            best_gain = gain;
            best = candidate;
          }
        }

        community_strength[best] += strength[node];
        if (best != current) {
          community[node] = best;
          moved_this_pass = true;
          any_move = true;
        }
      }
      if (!moved_this_pass) break;
    }
  }

  // Renumber communities densely.
  std::unordered_map<std::uint32_t, std::uint32_t> renumber;
  for (auto& c : community) {
    auto [it, inserted] = renumber.try_emplace(c, static_cast<std::uint32_t>(renumber.size()));
    c = it->second;
  }
  return {std::move(community), renumber.size(), any_move};
}

/// Collapses communities into super-nodes; self-loop weights are dropped —
/// modularity bookkeeping treats internal weight implicitly via the next
/// level's strengths, so we carry self-loops explicitly instead.
WeightedGraph aggregate(const WeightedGraph& graph,
                        const std::vector<std::uint32_t>& labels,
                        std::size_t communities,
                        const std::vector<double>& old_self_loops,
                        std::vector<double>& self_loops) {
  WeightedGraph agg(communities);
  self_loops.assign(communities, 0.0);
  for (std::uint32_t i = 0; i < old_self_loops.size(); ++i) {
    self_loops[labels[i]] += old_self_loops[i];
  }
  // Deduplicate pairwise weights to keep adjacency lists small.
  std::unordered_map<std::uint64_t, double> pair_weight;
  for (std::uint32_t a = 0; a < graph.size(); ++a) {
    for (const auto& [b, w] : graph.neighbors(a)) {
      if (b < a) continue;  // visit each undirected edge once
      const std::uint32_t ca = labels[a];
      const std::uint32_t cb = labels[b];
      if (ca == cb) {
        self_loops[ca] += w;
      } else {
        const std::uint64_t key =
            (std::uint64_t{std::min(ca, cb)} << 32) | std::max(ca, cb);
        pair_weight[key] += w;
      }
    }
  }
  for (const auto& [key, w] : pair_weight) {
    agg.add_edge(static_cast<std::uint32_t>(key >> 32),
                 static_cast<std::uint32_t>(key & 0xFFFFFFFFu), w);
  }
  return agg;
}

}  // namespace

double modularity(const WeightedGraph& graph,
                  const std::vector<std::uint32_t>& labels, double resolution) {
  CCG_EXPECT(labels.size() == graph.size());
  const double m2 = 2.0 * graph.total_weight();
  if (m2 == 0.0) return 0.0;

  std::unordered_map<std::uint32_t, double> internal, total;
  for (std::uint32_t a = 0; a < graph.size(); ++a) {
    total[labels[a]] += graph.strength(a);
    for (const auto& [b, w] : graph.neighbors(a)) {
      if (labels[a] == labels[b]) internal[labels[a]] += w;  // counted twice
    }
  }
  double q = 0.0;
  for (const auto& [c, tot] : total) {
    const double in = internal.count(c) ? internal.at(c) : 0.0;
    q += in / m2 - resolution * (tot / m2) * (tot / m2);
  }
  return q;
}

LouvainResult louvain_cluster(const WeightedGraph& graph, LouvainOptions options) {
  CCG_EXPECT(options.resolution > 0.0);
  const std::size_t n = graph.size();
  Rng rng(options.seed);

  LouvainResult result;
  result.labels.resize(n);
  std::iota(result.labels.begin(), result.labels.end(), 0);
  result.community_count = n;
  if (n == 0) return result;

  // Mapping from original nodes to current-level super-nodes.
  std::vector<std::uint32_t> node_to_super(n);
  std::iota(node_to_super.begin(), node_to_super.end(), 0);

  // Working graph at the current level. WeightedGraph forbids self-loops,
  // so intra-community weight absorbed by aggregation is carried in a
  // parallel per-super-node vector and folded into node strengths.
  WeightedGraph level = graph;
  std::vector<double> self_loops;  // per super-node, current level

  for (int depth = 0; depth < 64; ++depth) {
    LevelResult lr = local_moving(level, options.resolution, rng,
                                  options.max_passes_per_level, self_loops);
    // Project this level's communities down to original nodes.
    for (std::size_t i = 0; i < n; ++i) {
      node_to_super[i] = lr.labels[node_to_super[i]];
    }
    result.levels = depth + 1;
    result.community_count = lr.community_count;

    if (!lr.improved || lr.community_count == level.size()) break;
    std::vector<double> next_loops;
    level = aggregate(level, lr.labels, lr.community_count, self_loops, next_loops);
    self_loops = std::move(next_loops);
  }

  result.labels = node_to_super;
  result.modularity = modularity(graph, result.labels, options.resolution);
  return result;
}

}  // namespace ccg
