#include "ccg/segmentation/louvain.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "ccg/common/expect.hpp"
#include "ccg/common/rng.hpp"
#include "ccg/graph/builder.hpp"
#include "ccg/graph/csr.hpp"
#include "ccg/segmentation/auto_segment.hpp"
#include "ccg/segmentation/similarity.hpp"
#include "ccg/telemetry/collector.hpp"
#include "ccg/workload/driver.hpp"
#include "ccg/workload/presets.hpp"

namespace ccg {
namespace {

/// Two k-cliques joined by a single weak bridge.
WeightedGraph two_cliques(std::size_t k, double internal_weight = 1.0,
                          double bridge_weight = 0.1) {
  WeightedGraph g(2 * k);
  for (std::uint32_t offset : {0u, static_cast<std::uint32_t>(k)}) {
    for (std::uint32_t i = 0; i < k; ++i) {
      for (std::uint32_t j = i + 1; j < k; ++j) {
        g.add_edge(offset + i, offset + j, internal_weight);
      }
    }
  }
  g.add_edge(0, static_cast<std::uint32_t>(k), bridge_weight);
  return g;
}

TEST(WeightedGraph, TracksWeightsAndStrength) {
  WeightedGraph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 3.0);
  g.add_edge(0, 1, 0.0);  // zero weights dropped
  EXPECT_DOUBLE_EQ(g.total_weight(), 5.0);
  EXPECT_DOUBLE_EQ(g.strength(1), 5.0);
  EXPECT_DOUBLE_EQ(g.strength(0), 2.0);
  EXPECT_THROW(g.add_edge(0, 0, 1.0), ContractViolation);
  EXPECT_THROW(g.add_edge(0, 5, 1.0), ContractViolation);
  EXPECT_THROW(g.add_edge(0, 1, -1.0), ContractViolation);
}

TEST(Louvain, SeparatesTwoCliques) {
  const auto g = two_cliques(8);
  const auto result = louvain_cluster(g);
  EXPECT_EQ(result.community_count, 2u);
  // All of clique 1 together, all of clique 2 together, and apart.
  for (std::uint32_t i = 1; i < 8; ++i) EXPECT_EQ(result.labels[i], result.labels[0]);
  for (std::uint32_t i = 9; i < 16; ++i) EXPECT_EQ(result.labels[i], result.labels[8]);
  EXPECT_NE(result.labels[0], result.labels[8]);
  EXPECT_GT(result.modularity, 0.3);
}

TEST(Louvain, FourCliqueRing) {
  // Four 6-cliques in a ring with weak bridges: must find 4 communities.
  constexpr std::size_t k = 6, groups = 4;
  WeightedGraph g(k * groups);
  for (std::uint32_t group = 0; group < groups; ++group) {
    const std::uint32_t base = group * k;
    for (std::uint32_t i = 0; i < k; ++i) {
      for (std::uint32_t j = i + 1; j < k; ++j) {
        g.add_edge(base + i, base + j, 1.0);
      }
    }
    g.add_edge(base, ((group + 1) % groups) * k, 0.05);
  }
  const auto result = louvain_cluster(g);
  EXPECT_EQ(result.community_count, 4u);
}

TEST(Louvain, SingletonAndEmptyGraphs) {
  WeightedGraph empty(0);
  const auto r0 = louvain_cluster(empty);
  EXPECT_EQ(r0.community_count, 0u);

  WeightedGraph isolated(3);  // no edges
  const auto r1 = louvain_cluster(isolated);
  EXPECT_EQ(r1.labels.size(), 3u);
  EXPECT_EQ(r1.community_count, 3u);  // nothing merges without edges
}

TEST(Louvain, DeterministicForSeed) {
  const auto g = two_cliques(10);
  const auto a = louvain_cluster(g, {.seed = 5});
  const auto b = louvain_cluster(g, {.seed = 5});
  EXPECT_EQ(a.labels, b.labels);
}

TEST(Louvain, HigherResolutionGivesMoreCommunities) {
  // A uniform random graph: resolution controls fragmentation.
  Rng rng(77);
  WeightedGraph g(60);
  for (int e = 0; e < 400; ++e) {
    const auto a = static_cast<std::uint32_t>(rng.uniform(60));
    const auto b = static_cast<std::uint32_t>(rng.uniform(60));
    if (a != b) g.add_edge(a, b, 1.0);
  }
  const auto low = louvain_cluster(g, {.resolution = 0.5, .seed = 5});
  const auto high = louvain_cluster(g, {.resolution = 3.0, .seed = 5});
  EXPECT_LE(low.community_count, high.community_count);
}

TEST(Modularity, PerfectSplitBeatsMergedLabels) {
  const auto g = two_cliques(8);
  std::vector<std::uint32_t> split(16, 0);
  for (std::size_t i = 8; i < 16; ++i) split[i] = 1;
  std::vector<std::uint32_t> merged(16, 0);
  EXPECT_GT(modularity(g, split), modularity(g, merged));
  EXPECT_NEAR(modularity(g, merged), 0.0, 1e-12);
}

TEST(Modularity, LabelSizeMustMatch) {
  const auto g = two_cliques(4);
  EXPECT_THROW(modularity(g, std::vector<std::uint32_t>(3, 0)), ContractViolation);
}

TEST(Louvain, LabelsAreDense) {
  const auto g = two_cliques(5);
  const auto result = louvain_cluster(g);
  std::unordered_set<std::uint32_t> labels(result.labels.begin(), result.labels.end());
  EXPECT_EQ(labels.size(), result.community_count);
  for (const auto l : labels) EXPECT_LT(l, result.community_count);
}

// ---------------------------------------------------------------------------
// Equivalence with the hash-map local moving louvain_cluster ran before its
// dense rewrite. The reference below is that implementation, statement for
// statement, plus a count of near-ties: visits where the best other
// community beats the current one by more than 1e-12 but not the
// runner-up, so only the std::unordered_map's iteration order decides the
// move. The dense version must reproduce every label, level and modularity
// bit, ties included.

namespace hashmap_reference {

struct LevelResult {
  std::vector<std::uint32_t> labels;
  std::size_t community_count;
  bool improved;
};

/// True when the best non-current community wins over `current_gain` but
/// not clearly over the runner-up, so the scan order decides.
bool near_tie(const std::unordered_map<std::uint32_t, double>& weight_to,
              std::uint32_t current, double current_gain, double resolution,
              double strength, double m2, const std::vector<double>& community_strength) {
  double top = -std::numeric_limits<double>::infinity();
  double second = top;
  for (const auto& [candidate, w] : weight_to) {
    if (candidate == current) continue;
    const double gain = w - resolution * strength * community_strength[candidate] / m2;
    if (gain > top) {
      second = top;
      top = gain;
    } else if (gain > second) {
      second = gain;
    }
  }
  return top > current_gain + 1e-12 && !(top > std::max(current_gain, second) + 1e-12);
}

LevelResult local_moving(const WeightedGraph& graph, double resolution, Rng& rng,
                         int max_passes, const std::vector<double>& self_loops,
                         std::size_t& near_ties) {
  const std::size_t n = graph.size();
  double loop_total = 0.0;
  for (double s : self_loops) loop_total += s;
  const double m2 = 2.0 * (graph.total_weight() + loop_total);

  std::vector<std::uint32_t> community(n);
  std::iota(community.begin(), community.end(), 0);
  std::vector<double> strength(n), community_strength(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    strength[i] = graph.strength(i) + (i < self_loops.size() ? 2.0 * self_loops[i] : 0.0);
    community_strength[i] = strength[i];
  }

  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  bool any_move = false;
  if (m2 > 0.0) {
    for (int pass = 0; pass < max_passes; ++pass) {
      for (std::size_t i = n; i > 1; --i) {
        std::swap(order[i - 1], order[rng.uniform(i)]);
      }

      bool moved_this_pass = false;
      std::unordered_map<std::uint32_t, double> weight_to;
      for (const std::uint32_t node : order) {
        const std::uint32_t current = community[node];

        weight_to.clear();
        for (const auto& [peer, w] : graph.neighbors(node)) {
          weight_to[community[peer]] += w;
        }

        community_strength[current] -= strength[node];

        std::uint32_t best = current;
        double best_gain = weight_to[current] -
                           resolution * strength[node] * community_strength[current] / m2;
        near_ties += near_tie(weight_to, current, best_gain, resolution, strength[node], m2,
                              community_strength);
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

  std::unordered_map<std::uint32_t, std::uint32_t> renumber;
  for (auto& c : community) {
    auto [it, inserted] = renumber.try_emplace(c, static_cast<std::uint32_t>(renumber.size()));
    c = it->second;
  }
  return {std::move(community), renumber.size(), any_move};
}

WeightedGraph aggregate(const WeightedGraph& graph, const std::vector<std::uint32_t>& labels,
                        std::size_t communities, const std::vector<double>& old_self_loops,
                        std::vector<double>& self_loops) {
  WeightedGraph agg(communities);
  self_loops.assign(communities, 0.0);
  for (std::uint32_t i = 0; i < old_self_loops.size(); ++i) {
    self_loops[labels[i]] += old_self_loops[i];
  }
  std::unordered_map<std::uint64_t, double> pair_weight;
  for (std::uint32_t a = 0; a < graph.size(); ++a) {
    for (const auto& [b, w] : graph.neighbors(a)) {
      if (b < a) continue;
      const std::uint32_t ca = labels[a];
      const std::uint32_t cb = labels[b];
      if (ca == cb) {
        self_loops[ca] += w;
      } else {
        const std::uint64_t key = (std::uint64_t{std::min(ca, cb)} << 32) | std::max(ca, cb);
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

LouvainResult louvain_cluster(const WeightedGraph& graph, LouvainOptions options,
                              std::size_t& near_ties) {
  const std::size_t n = graph.size();
  Rng rng(options.seed);

  LouvainResult result;
  result.labels.resize(n);
  std::iota(result.labels.begin(), result.labels.end(), 0);
  result.community_count = n;
  if (n == 0) return result;

  std::vector<std::uint32_t> node_to_super(n);
  std::iota(node_to_super.begin(), node_to_super.end(), 0);
  WeightedGraph level = graph;
  std::vector<double> self_loops;

  for (int depth = 0; depth < 64; ++depth) {
    LevelResult lr = local_moving(level, options.resolution, rng,
                                  options.max_passes_per_level, self_loops, near_ties);
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

}  // namespace hashmap_reference

/// Runs both implementations; empty when every output bit agrees, else
/// what differs. Adds the reference's near-tie visits to `near_ties`.
std::string compare_with_reference(const WeightedGraph& graph, LouvainOptions options,
                                   std::size_t& near_ties) {
  const LouvainResult want = hashmap_reference::louvain_cluster(graph, options, near_ties);
  const LouvainResult got = louvain_cluster(graph, options);
  std::string diff;
  if (got.labels != want.labels) diff += " labels";
  if (got.community_count != want.community_count) diff += " community_count";
  if (got.levels != want.levels) diff += " levels";
  if (std::bit_cast<std::uint64_t>(got.modularity) !=
      std::bit_cast<std::uint64_t>(want.modularity)) {
    diff += " modularity";
  }
  return diff;
}

enum class TieWeights { kUnit, kQuarterStep, kUniform };

struct TieHeavyCase {
  TieWeights weights;
  double resolution;
};

/// "Unit_Resolution0_5": the test name suffix, also what GoogleTest prints
/// for the parameter (its default byte dump would show struct padding).
std::string case_name(const TieHeavyCase& c) {
  const char* weights = c.weights == TieWeights::kUnit          ? "Unit"
                        : c.weights == TieWeights::kQuarterStep ? "QuarterStep"
                                                                : "Uniform";
  const int tenths = static_cast<int>(std::lround(c.resolution * 10));
  return std::string(weights) + "_Resolution" + std::to_string(tenths / 10) + "_" +
         std::to_string(tenths % 10);
}

void PrintTo(const TieHeavyCase& c, std::ostream* os) { *os << case_name(c); }

/// A seeded random multigraph on 2-120 nodes, 0.5 to 16 edges per node,
/// so some nodes see more than the 13 and 29 distinct communities at which
/// a std::unordered_map first grows its bucket array.
WeightedGraph tie_heavy_graph(Rng& rng, TieWeights weights) {
  const auto n = static_cast<std::uint32_t>(2 + rng.uniform(119));
  const std::uint64_t edges = 1 + rng.uniform(n * (1 + rng.uniform(32)) / 2);
  WeightedGraph g(n);
  for (std::uint64_t e = 0; e < edges; ++e) {
    const auto a = static_cast<std::uint32_t>(rng.uniform(n));
    const auto b = static_cast<std::uint32_t>(rng.uniform(n));
    if (a == b) continue;
    switch (weights) {
      case TieWeights::kUnit: g.add_edge(a, b, 1.0); break;
      case TieWeights::kQuarterStep: g.add_edge(a, b, 0.25 * double(1 + rng.uniform(4))); break;
      case TieWeights::kUniform: g.add_edge(a, b, 1.0 - rng.uniform01()); break;
    }
  }
  return g;
}

class LouvainMatchesHashMapReference : public ::testing::TestWithParam<TieHeavyCase> {};

TEST_P(LouvainMatchesHashMapReference, OnSeededTieHeavyGraphs) {
  const TieHeavyCase param = GetParam();
  constexpr int kGraphs = 1000;
  std::size_t near_ties = 0;
  int mismatches = 0;
  for (int i = 0; i < kGraphs; ++i) {
    Rng rng(1000003ull * static_cast<std::uint64_t>(param.weights) + i);
    const WeightedGraph g = tie_heavy_graph(rng, param.weights);
    const std::string diff = compare_with_reference(
        g, {.resolution = param.resolution, .seed = static_cast<std::uint64_t>(i)}, near_ties);
    if (!diff.empty() && ++mismatches <= 5) {
      ADD_FAILURE() << "graph " << i << " (n=" << g.size() << "):" << diff;
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << kGraphs << " graphs";
  // Discrete weights must exercise the map-order tie scan.
  if (param.weights != TieWeights::kUniform) {
    EXPECT_GT(near_ties, 100u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WeightsAndResolution, LouvainMatchesHashMapReference,
    ::testing::Values(TieHeavyCase{TieWeights::kUnit, 0.5}, TieHeavyCase{TieWeights::kUnit, 1.0},
                      TieHeavyCase{TieWeights::kUnit, 2.0},
                      TieHeavyCase{TieWeights::kQuarterStep, 0.5},
                      TieHeavyCase{TieWeights::kQuarterStep, 1.0},
                      TieHeavyCase{TieWeights::kQuarterStep, 2.0},
                      TieHeavyCase{TieWeights::kUniform, 0.5},
                      TieHeavyCase{TieWeights::kUniform, 1.0},
                      TieHeavyCase{TieWeights::kUniform, 2.0}),
    [](const ::testing::TestParamInfo<TieHeavyCase>& info) { return case_name(info.param); });

TEST(LouvainMatchesHashMapReference, OnSimulatedK8sWindows) {
  // Two hours of the k8s preset in 3-minute windows, built as the analysis
  // commands build them, and each window's three Louvain inputs: the
  // Jaccard similarity clique the segment tracker clusters, and the
  // connection-minute and log-byte weighted graphs of Fig. 3(c)/(d).
  Cluster cluster(presets::k8s_paas(0.125), 7);
  TelemetryHub hub(ProviderProfile::azure(), 7);
  SimulationDriver driver(cluster, hub);
  const auto monitored = cluster.monitored_ips();
  GraphBuilder builder({.window_minutes = 3, .collapse_threshold = 0.001},
                       {monitored.begin(), monitored.end()});
  hub.set_sink(&builder);
  driver.run(TimeWindow::minutes(0, 120));
  builder.flush();
  const auto windows = builder.take_graphs();
  ASSERT_EQ(windows.size(), 40u);

  const SegmentationOptions product;
  const LouvainOptions options{.resolution = product.louvain_resolution, .seed = product.seed};
  std::size_t near_ties = 0;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const CommGraph& graph = windows[w];
    const CsrAdjacency csr(graph);
    WeightedGraph minutes(graph.node_count()), bytes(graph.node_count());
    for (const Edge& e : graph.edges()) {
      minutes.add_edge(e.a, e.b, static_cast<double>(e.stats.connection_minutes));
      bytes.add_edge(e.a, e.b, std::log1p(static_cast<double>(e.stats.bytes())));
    }
    const WeightedGraph clique =
        similarity_clique(graph, csr, {.min_score = product.min_similarity});
    EXPECT_EQ(compare_with_reference(clique, options, near_ties), "") << "clique, window " << w;
    EXPECT_EQ(compare_with_reference(minutes, options, near_ties), "") << "minutes, window " << w;
    EXPECT_EQ(compare_with_reference(bytes, options, near_ties), "") << "bytes, window " << w;
  }
  EXPECT_GT(near_ties, 0u);
}

}  // namespace
}  // namespace ccg
