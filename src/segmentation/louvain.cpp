#include "ccg/segmentation/louvain.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>
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

/// Breaks a near-tie between candidate communities the way a per-pass
/// std::unordered_map<community, link weight> breaks it: the first candidate
/// in the map's iteration order that beats the best so far by more than
/// 1e-12 wins. That order depends on the map's bucket count, which depends
/// only on the largest number of keys the map has held this pass. So the
/// map here is grown with dummy keys to every earlier visit's distinct
/// count (recorded after that visit's decision, never before), then
/// refilled with this visit's keys in first-touch order.
class MapOrderTies {
 public:
  /// Records that a visit summed links to `distinct` communities.
  void visited(std::size_t distinct) { high_water_ = std::max(high_water_, distinct); }

  /// The community the map-order scan picks for a visit from `current`
  /// that touched `touched`, in first-touch order.
  template <typename Gain>
  std::uint32_t best(std::span<const std::uint32_t> touched, std::uint32_t current,
                     double current_gain, const Gain& gain) {
    if (grown_ < high_water_) {
      map_.clear();
      for (std::uint32_t key = 0; key < high_water_; ++key) map_.emplace(key, 0.0);
      grown_ = high_water_;
    }
    map_.clear();
    for (const std::uint32_t c : touched) map_.emplace(c, 0.0);
    map_.emplace(current, 0.0);  // inserted last when no link reaches it
    grown_ = std::max(grown_, map_.size());

    std::uint32_t best = current;
    double best_gain = current_gain;
    for (const auto& [candidate, unused] : map_) {
      if (candidate == current) continue;
      const double g = gain(candidate);
      if (g > best_gain + 1e-12) {
        best_gain = g;
        best = candidate;
      }
    }
    return best;
  }

 private:
  std::unordered_map<std::uint32_t, double> map_;
  std::size_t high_water_ = 0;  // most distinct keys of any visit this pass
  std::size_t grown_ = 0;       // most keys map_ has held
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

  // Links from the visited node to each community, summed in neighbor
  // order, and the communities in first-touch order. WeightedGraph keeps
  // only positive weights, so a zero entry has not been touched. There are
  // n community labels, so the write at index `distinct` stays below n + 1.
  std::vector<double> weight_to(n, 0.0);
  std::vector<std::uint32_t> first_touch(n + 1);

  bool any_move = false;
  if (m2 > 0.0) {
    for (int pass = 0; pass < max_passes; ++pass) {
      // Shuffle visiting order (seeded) — standard Louvain practice.
      for (std::size_t i = n; i > 1; --i) {
        std::swap(order[i - 1], order[rng.uniform(i)]);
      }

      bool moved_this_pass = false;
      MapOrderTies ties;
      for (const std::uint32_t node : order) {
        const std::uint32_t current = community[node];

        std::size_t distinct = 0;
        for (const auto& [peer, w] : graph.neighbors(node)) {
          const std::uint32_t c = community[peer];
          first_touch[distinct] = c;  // kept only when c is new (no branch)
          distinct += weight_to[c] == 0.0;
          weight_to[c] += w;
        }
        const std::span<const std::uint32_t> touched(first_touch.data(), distinct);

        // Remove node from its community.
        community_strength[current] -= strength[node];

        // Gain: dQ = w_to_c/m - gamma * k_i * K_c / (2m^2)  (x2m scale).
        const auto gain = [&](std::uint32_t c) {
          return weight_to[c] - resolution * strength[node] * community_strength[c] / m2;
        };
        const double current_gain = gain(current);
        std::uint32_t top = current;
        double top_gain = -std::numeric_limits<double>::infinity();
        double second_gain = top_gain;
        for (const std::uint32_t c : touched) {
          if (c == current) continue;
          const double g = gain(c);
          if (g > top_gain) {
            second_gain = top_gain;
            top_gain = g;
            top = c;
          } else if (g > second_gain) {
            second_gain = g;
          }
        }

        // Stay unless some community beats the current one by 1e-12. Move
        // to the top one when it also beats the runner-up by 1e-12: then
        // any scan order picks it. Otherwise scan in the map's order.
        std::uint32_t best = current;
        if (top_gain > current_gain + 1e-12) {
          best = top_gain > std::max(current_gain, second_gain) + 1e-12
                     ? top
                     : ties.best(touched, current, current_gain, gain);
        }
        ties.visited(distinct + (weight_to[current] == 0.0 ? 1 : 0));
        for (const std::uint32_t c : touched) weight_to[c] = 0.0;

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

  // Renumber communities densely, in order of first appearance.
  constexpr std::uint32_t kUnset = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> renumber(n, kUnset);
  std::uint32_t communities = 0;
  for (auto& c : community) {
    if (renumber[c] == kUnset) renumber[c] = communities++;
    c = renumber[c];
  }
  return {std::move(community), communities, any_move};
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

  // Working graph at the current level: the input, then each aggregate.
  // WeightedGraph forbids self-loops, so intra-community weight absorbed by
  // aggregation is carried in a parallel per-super-node vector and folded
  // into node strengths.
  const WeightedGraph* level = &graph;
  WeightedGraph aggregated(0);
  std::vector<double> self_loops;  // per super-node, current level

  for (int depth = 0; depth < 64; ++depth) {
    LevelResult lr = local_moving(*level, options.resolution, rng,
                                  options.max_passes_per_level, self_loops);
    // Project this level's communities down to original nodes.
    for (std::size_t i = 0; i < n; ++i) {
      node_to_super[i] = lr.labels[node_to_super[i]];
    }
    result.levels = depth + 1;
    result.community_count = lr.community_count;

    if (!lr.improved || lr.community_count == level->size()) break;
    std::vector<double> next_loops;
    aggregated = aggregate(*level, lr.labels, lr.community_count, self_loops, next_loops);
    level = &aggregated;
    self_loops = std::move(next_loops);
  }

  result.labels = node_to_super;
  result.modularity = modularity(graph, result.labels, options.resolution);
  return result;
}

}  // namespace ccg
