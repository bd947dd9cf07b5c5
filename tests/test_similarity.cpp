#include "ccg/segmentation/similarity.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "ccg/common/rng.hpp"
#include "ccg/graph/builder.hpp"
#include "ccg/graph/csr.hpp"
#include "ccg/parallel/parallel.hpp"
#include "ccg/segmentation/auto_segment.hpp"
#include "ccg/telemetry/collector.hpp"
#include "ccg/workload/driver.hpp"
#include "ccg/workload/presets.hpp"
#include "bits.hpp"

namespace ccg {
namespace {

NodeId ip_node(CommGraph& g, std::uint32_t ip) {
  return g.add_node(NodeKey::for_ip(IpAddr(ip)));
}

void edge(CommGraph& g, NodeId a, NodeId b, std::uint64_t bytes = 1000) {
  g.add_edge_volume(a, b, bytes, bytes / 2, 1, 1, 1, 1);
}

/// Classic role structure: two "frontends" (f1, f2) never talk to each
/// other but both talk to the same three "backends".
struct RoleFixture {
  CommGraph g;
  NodeId f1, f2, b1, b2, b3;
  RoleFixture() {
    f1 = ip_node(g, 1);
    f2 = ip_node(g, 2);
    b1 = ip_node(g, 11);
    b2 = ip_node(g, 12);
    b3 = ip_node(g, 13);
    for (const NodeId f : {f1, f2}) {
      for (const NodeId b : {b1, b2, b3}) edge(g, f, b);
    }
  }
};

TEST(NodeSimilarity, IdenticalNeighborSetsScoreOne) {
  RoleFixture fx;
  EXPECT_DOUBLE_EQ(node_similarity(fx.g, fx.f1, fx.f2), 1.0);
}

TEST(NodeSimilarity, PartialOverlap) {
  RoleFixture fx;
  // b1 and b2 share neighbors {f1, f2}: identical -> 1.0.
  EXPECT_DOUBLE_EQ(node_similarity(fx.g, fx.b1, fx.b2), 1.0);
  // f1's neighbors {b1,b2,b3}; b1's neighbors {f1,f2}: disjoint -> 0.
  EXPECT_DOUBLE_EQ(node_similarity(fx.g, fx.f1, fx.b1), 0.0);
}

TEST(NodeSimilarity, SelfIsOne) {
  RoleFixture fx;
  EXPECT_DOUBLE_EQ(node_similarity(fx.g, fx.f1, fx.f1), 1.0);
}

TEST(NodeSimilarity, DirectEdgeExclusion) {
  // a - b directly connected; both also talk to c.
  CommGraph g;
  const NodeId a = ip_node(g, 1);
  const NodeId b = ip_node(g, 2);
  const NodeId c = ip_node(g, 3);
  edge(g, a, b);
  edge(g, a, c);
  edge(g, b, c);
  // With exclusion: N(a)\{b} = {c}, N(b)\{a} = {c} -> Jaccard 1.
  EXPECT_DOUBLE_EQ(node_similarity(g, a, b, {.exclude_self_edges = true}), 1.0);
  // Without: N(a) = {b, c}, N(b) = {a, c} -> 1 common of 3 in union.
  EXPECT_NEAR(node_similarity(g, a, b, {.exclude_self_edges = false}), 1.0 / 3.0,
              1e-12);
}

TEST(SimilarityClique, ScoresRolePairsHigh) {
  RoleFixture fx;
  const WeightedGraph clique = similarity_clique(fx.g, {.min_score = 0.01});
  // Frontends pair up; backends pair up.
  double f_pair = 0.0, fb_pair = 0.0;
  for (const auto& [peer, w] : clique.neighbors(fx.f1)) {
    if (peer == fx.f2) f_pair = w;
    if (peer == fx.b1) fb_pair = w;
  }
  EXPECT_DOUBLE_EQ(f_pair, 1.0);
  EXPECT_DOUBLE_EQ(fb_pair, 0.0);  // cross-role pairs score 0 and are dropped
}

TEST(SimilarityClique, MinScoreFilters) {
  // Two nodes sharing 1 of many neighbors: small score, filtered out.
  CommGraph g;
  const NodeId a = ip_node(g, 1);
  const NodeId b = ip_node(g, 2);
  const NodeId shared = ip_node(g, 3);
  edge(g, a, shared);
  edge(g, b, shared);
  for (std::uint32_t i = 0; i < 20; ++i) {
    edge(g, a, ip_node(g, 100 + i));
    edge(g, b, ip_node(g, 200 + i));
  }
  // Jaccard(a,b) = 1/41.
  const auto strict = similarity_clique(g, {.min_score = 0.1});
  double w_strict = 0.0;
  for (const auto& [peer, w] : strict.neighbors(a)) {
    if (peer == b) w_strict = w;
  }
  EXPECT_EQ(w_strict, 0.0);

  const auto loose = similarity_clique(g, {.min_score = 0.01});
  double w_loose = 0.0;
  for (const auto& [peer, w] : loose.neighbors(a)) {
    if (peer == b) w_loose = w;
  }
  EXPECT_NEAR(w_loose, 1.0 / 41.0, 1e-12);
}

TEST(SimilarityClique, WeightedJaccardSeparatesVolumeProfiles) {
  // Two clients hit the same two servers, but with inverted volume mixes.
  CommGraph g;
  const NodeId c1 = ip_node(g, 1);
  const NodeId c2 = ip_node(g, 2);
  const NodeId c3 = ip_node(g, 3);
  const NodeId s1 = ip_node(g, 11);
  const NodeId s2 = ip_node(g, 12);
  edge(g, c1, s1, 1'000'000);
  edge(g, c1, s2, 100);
  edge(g, c2, s1, 1'000'000);
  edge(g, c2, s2, 100);
  edge(g, c3, s1, 100);
  edge(g, c3, s2, 1'000'000);

  // Set Jaccard can't tell c1/c2 from c1/c3; weighted overlap can.
  EXPECT_DOUBLE_EQ(node_similarity(g, c1, c3), 1.0);
  const SimilarityOptions weighted{.kind = SimilarityKind::kWeightedJaccard};
  const double same_profile = node_similarity(g, c1, c2, weighted);
  const double diff_profile = node_similarity(g, c1, c3, weighted);
  EXPECT_GT(same_profile, 0.99);
  EXPECT_LT(diff_profile, same_profile - 0.2);
}

TEST(SimilarityClique, CosineVariantBehaves) {
  RoleFixture fx;
  const SimilarityOptions cosine{.kind = SimilarityKind::kCosine};
  EXPECT_NEAR(node_similarity(fx.g, fx.f1, fx.f2, cosine), 1.0, 1e-9);
  EXPECT_NEAR(node_similarity(fx.g, fx.f1, fx.b1, cosine), 0.0, 1e-9);
}

TEST(SimilarityClique, MinHashPathFindsRolePairs) {
  // > 2500 nodes forces the MinHash/LSH path: 2700 "workers" in 3 families,
  // each family sharing its own 40 "servers".
  CommGraph g;
  std::vector<NodeId> servers;
  for (std::uint32_t f = 0; f < 3; ++f) {
    for (std::uint32_t s = 0; s < 40; ++s) {
      servers.push_back(ip_node(g, 100000 + f * 100 + s));
    }
  }
  std::vector<NodeId> workers;
  for (std::uint32_t w = 0; w < 2700; ++w) {
    const NodeId node = ip_node(g, 200000 + w);
    workers.push_back(node);
    const std::uint32_t family = w % 3;
    for (std::uint32_t s = 0; s < 40; ++s) {
      edge(g, node, servers[family * 40 + s]);
    }
  }
  const WeightedGraph clique = similarity_clique(g, {.min_score = 0.3});
  // Same-family worker pairs (Jaccard 1.0) must be found.
  std::size_t same_family_hits = 0;
  for (const auto& [peer, w] : clique.neighbors(workers[0])) {
    if (peer >= workers[0] && (peer - servers.size()) % 3 == 0) ++same_family_hits;
  }
  EXPECT_GT(same_family_hits, 100u);
  // And the weights are near 1.
  for (const auto& [peer, w] : clique.neighbors(workers[0])) {
    EXPECT_GT(w, 0.3);
  }
}

TEST(NodeSimilarity, ServerPortHintSeparatesServicesOnOneClientSet) {
  // The db/cache ambiguity of the IP facet: two backends serve the SAME
  // clients, so their neighbor sets are identical — only the service port
  // differs. The port-typed feature must separate them, while two replicas
  // of the same service (same port) stay similar.
  CommGraph g;
  const NodeId db = ip_node(g, 1);
  const NodeId db2 = ip_node(g, 2);
  const NodeId cache = ip_node(g, 3);
  const NodeId api1 = ip_node(g, 11);
  const NodeId api2 = ip_node(g, 12);
  for (const NodeId api : {api1, api2}) {
    // api initiates to all three backends; direction + port attached.
    g.add_edge_volume(api, db, 1000, 500, 1, 1, 1, 1, 5, 0, 5432);
    g.add_edge_volume(api, db2, 1000, 500, 1, 1, 1, 1, 5, 0, 5432);
    g.add_edge_volume(api, cache, 1000, 500, 1, 1, 1, 1, 5, 0, 6379);
  }
  const double same_service = node_similarity(g, db, db2);
  const double diff_service = node_similarity(g, db, cache);
  EXPECT_DOUBLE_EQ(same_service, 1.0);
  EXPECT_DOUBLE_EQ(diff_service, 0.0);
  // Without direction typing the ambiguity returns.
  EXPECT_DOUBLE_EQ(node_similarity(g, db, cache, {.use_direction = false}), 1.0);
}

TEST(SimilarityClique, EmptyAndTinyGraphs) {
  CommGraph empty;
  EXPECT_EQ(similarity_clique(empty).size(), 0u);

  CommGraph one;
  ip_node(one, 1);
  EXPECT_EQ(similarity_clique(one).size(), 1u);
  EXPECT_EQ(similarity_clique(one).total_weight(), 0.0);
}

// --- the row-counting Jaccard kernel against the per-pair scorer ----------

/// The per-pair typed-Jaccard scorer that row counting replaced, kept as
/// the reference: a's row stamped into dense arrays (membership, direction
/// tag, port), then b's whole row scanned against them.
class PairScorer {
 public:
  explicit PairScorer(const CsrAdjacency& csr)
      : csr_(csr),
        stamp_(csr.node_count(), 0),
        tag_(csr.node_count(), 0),
        port_(csr.node_count(), -1) {}

  void stamp(std::uint32_t a) {
    ++version_;
    const auto ids = csr_.ids(a);
    for (std::size_t k = 0; k < ids.size(); ++k) {
      stamp_[ids[k]] = version_;
      tag_[ids[k]] = csr_.tags(a)[k];
      port_[ids[k]] = csr_.ports(a)[k];
    }
    deg_a_ = ids.size();
  }

  /// Jaccard of (a, b); a's row must be the last one stamped.
  double score(std::uint32_t a, std::uint32_t b, const SimilarityOptions& options) {
    const bool exclude = options.exclude_self_edges;
    std::size_t deg_a = deg_a_;
    const bool b_in_a = stamp_[b] == version_;
    const std::uint32_t saved = stamp_[b];
    if (exclude && b_in_a) {
      stamp_[b] = 0;
      --deg_a;
    }
    std::uint32_t inter = 0, deg_b = 0;
    const auto ids = csr_.ids(b);
    const auto tags = csr_.tags(b);
    const auto ports = csr_.ports(b);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const std::uint32_t x = ids[i];
      if (exclude && x == a) continue;
      ++deg_b;
      if (stamp_[x] == version_ &&
          (!options.use_direction || (tag_[x] == tags[i] && port_[x] == ports[i]))) {
        ++inter;
      }
    }
    if (exclude && b_in_a) stamp_[b] = saved;
    const std::size_t uni = deg_a + deg_b - inter;
    return uni == 0 ? 0.0 : static_cast<double>(inter) / static_cast<double>(uni);
  }

 private:
  const CsrAdjacency& csr_;
  std::vector<std::uint32_t> stamp_;
  std::vector<std::int32_t> tag_, port_;
  std::uint32_t version_ = 0;
  std::size_t deg_a_ = 0;
};

/// The exact clique as the per-pair scorer built it: every pair a < b,
/// a-major, added when it scores at least min_score.
WeightedGraph reference_clique(const CsrAdjacency& csr, const SimilarityOptions& options) {
  const auto n = static_cast<std::uint32_t>(csr.node_count());
  WeightedGraph clique(n);
  PairScorer scorer(csr);
  for (std::uint32_t a = 0; a < n; ++a) {
    scorer.stamp(a);
    for (std::uint32_t b = a + 1; b < n; ++b) {
      const double score = scorer.score(a, b, options);
      if (score >= options.min_score) clique.add_edge(a, b, score);
    }
  }
  return clique;
}

/// "" when both cliques list the same neighbours in the same order with the
/// same weight bits and have the same total_weight bits; else the first
/// difference.
std::string clique_diff(const WeightedGraph& got, const WeightedGraph& want) {
  if (got.size() != want.size()) {
    return "size " + std::to_string(got.size()) + " vs " + std::to_string(want.size());
  }
  for (std::uint32_t v = 0; v < got.size(); ++v) {
    const auto& g = got.neighbors(v);
    const auto& w = want.neighbors(v);
    if (g.size() != w.size()) {
      return "node " + std::to_string(v) + ": " + std::to_string(g.size()) + " vs " +
             std::to_string(w.size()) + " neighbours";
    }
    for (std::size_t k = 0; k < g.size(); ++k) {
      if (g[k].first != w[k].first || bits(g[k].second) != bits(w[k].second)) {
        return "node " + std::to_string(v) + " entry " + std::to_string(k) + ": (" +
               std::to_string(g[k].first) + ", " + std::to_string(g[k].second) + ") vs (" +
               std::to_string(w[k].first) + ", " + std::to_string(w[k].second) + ")";
      }
    }
  }
  if (bits(got.total_weight()) != bits(want.total_weight())) return "total_weight";
  return "";
}

/// Sets the worker thread count for one scope.
struct AtThreads {
  explicit AtThreads(int threads) { parallel::set_thread_count(threads); }
  ~AtThreads() { parallel::set_thread_count(0); }
};

/// A seeded graph where typed common neighbours are frequent: families of
/// nodes share their family's peers, mostly with the family's direction
/// and port, over random edges of every direction and port (-1 included);
/// the last eighth of the nodes stays isolated. Repeated pairs accumulate,
/// so some edges end up mixed.
CommGraph seeded_graph(std::uint64_t seed, std::uint32_t nodes) {
  Rng rng(seed);
  CommGraph g;
  for (std::uint32_t i = 0; i < nodes; ++i) ip_node(g, 1000 + i);
  constexpr std::int32_t kPorts[] = {-1, 80, 443, 5432};
  // role 0: a initiates, 1: b initiates, 2: both (mixed), 3: no data (mixed).
  const auto add = [&](NodeId a, NodeId b, std::uint64_t role, std::int32_t port) {
    const std::uint64_t ab = role == 0 ? 6 : role == 2 ? 3 : 0;
    const std::uint64_t ba = role == 1 ? 6 : role == 2 ? 3 : 0;
    g.add_edge_volume(a, b, 1000 + rng.uniform(5000), 500, 1, 1, 1, 1, ab, ba, port);
  };
  const std::uint32_t live = nodes - nodes / 8;
  if (live < 2) return g;
  const std::uint32_t families = 1 + static_cast<std::uint32_t>(rng.uniform(4));
  for (NodeId v = 0; v < live; ++v) {
    const std::uint32_t f = v % families;
    for (std::uint32_t k = 0; k < 6; ++k) {
      const auto peer = static_cast<NodeId>((f * 7 + k * 3) % live);
      if (peer == v || !rng.chance(0.7)) continue;
      const bool typed = rng.chance(0.8);
      add(v, peer, typed ? (f + k) % 4 : rng.uniform(4),
          kPorts[typed ? (f + k) % 4 : rng.uniform(4)]);
    }
    for (int k = 0; k < 2; ++k) {
      const auto peer = static_cast<NodeId>(rng.uniform(live));
      if (peer != v) add(v, peer, rng.uniform(4), kPorts[rng.uniform(4)]);
    }
  }
  return g;
}

/// Every combination of the options the row counts read.
std::vector<SimilarityOptions> option_grid(std::size_t exact_pair_limit = 2500) {
  std::vector<SimilarityOptions> grid;
  for (const double min_score : {0.02, 0.0, -1.0}) {
    for (const bool exclude : {true, false}) {
      for (const bool direction : {true, false}) {
        grid.push_back({.min_score = min_score,
                        .exclude_self_edges = exclude,
                        .use_direction = direction,
                        .exact_pair_limit = exact_pair_limit});
      }
    }
  }
  return grid;
}

std::string describe(const SimilarityOptions& o) {
  return "min_score=" + std::to_string(o.min_score) +
         " exclude_self_edges=" + std::to_string(o.exclude_self_edges) +
         " use_direction=" + std::to_string(o.use_direction);
}

TEST(SimilarityRowCounts, MatchPairScorerOnSeededGraphs) {
  std::size_t nonempty = 0;  // cliques with at least one edge
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto nodes = static_cast<std::uint32_t>(3 + (seed * 37) % 88);
    const CommGraph g = seeded_graph(seed, nodes);
    const CsrAdjacency csr(g);
    for (const SimilarityOptions& options : option_grid()) {
      const WeightedGraph want = reference_clique(csr, options);
      for (const int threads : {1, 4}) {
        const AtThreads at(threads);
        const WeightedGraph got = similarity_clique(g, csr, options);
        ASSERT_EQ(clique_diff(got, want), "")
            << "seed " << seed << " n=" << nodes << " threads=" << threads << " "
            << describe(options);
        nonempty += got.total_weight() > 0.0 ? 1 : 0;
      }
    }
  }
  EXPECT_GT(nonempty, 0u);
}

TEST(SimilarityRowCounts, TinyGraphs) {
  for (const std::uint32_t nodes : {0u, 1u, 2u}) {
    for (const bool linked : {false, true}) {
      CommGraph g;
      for (std::uint32_t i = 0; i < nodes; ++i) ip_node(g, 1 + i);
      if (linked && nodes == 2) edge(g, 0, 1);
      const CsrAdjacency csr(g);
      for (const SimilarityOptions& options : option_grid()) {
        EXPECT_EQ(clique_diff(similarity_clique(g, csr, options),
                              reference_clique(csr, options)),
                  "")
            << "n=" << nodes << " " << describe(options);
      }
    }
  }
}

TEST(SimilarityRowCounts, LshPathMatchesPairScorer) {
  // A small exact_pair_limit forces MinHash/LSH candidates; each candidate
  // is still scored exactly, so every weight must equal the per-pair
  // scorer's and the pairs must be added a-major, b ascending.
  std::size_t nonempty = 0;  // cliques with at least one edge
  for (std::uint64_t seed = 101; seed <= 106; ++seed) {
    const CommGraph g = seeded_graph(seed, 90);
    const CsrAdjacency csr(g);
    PairScorer scorer(csr);
    for (const SimilarityOptions& options : option_grid(16)) {
      const WeightedGraph serial = [&] {
        const AtThreads at(1);
        return similarity_clique(g, csr, options);
      }();
      WeightedGraph want(g.node_count());
      for (std::uint32_t a = 0; a < g.node_count(); ++a) {
        std::vector<std::uint32_t> later;
        for (const auto& [b, w] : serial.neighbors(a)) {
          if (b > a) later.push_back(b);
        }
        std::sort(later.begin(), later.end());
        scorer.stamp(a);
        for (const std::uint32_t b : later) want.add_edge(a, b, scorer.score(a, b, options));
      }
      ASSERT_EQ(clique_diff(serial, want), "") << "seed " << seed << " " << describe(options);
      const AtThreads at(4);
      ASSERT_EQ(clique_diff(similarity_clique(g, csr, options), serial), "")
          << "threads=4, seed " << seed << " " << describe(options);
      nonempty += want.total_weight() > 0.0 ? 1 : 0;
    }
  }
  EXPECT_GT(nonempty, 0u);
}

TEST(SimilarityRowCounts, NodeSimilarityMatchesPairScorer) {
  for (std::uint64_t seed = 201; seed <= 206; ++seed) {
    const CommGraph g = seeded_graph(seed, 24);
    const CsrAdjacency csr(g);
    PairScorer scorer(csr);
    for (const SimilarityOptions& options : option_grid()) {
      for (std::uint32_t a = 0; a < g.node_count(); ++a) {
        scorer.stamp(a);
        for (std::uint32_t b = 0; b < g.node_count(); ++b) {
          const double want = a == b ? 1.0 : scorer.score(a, b, options);
          ASSERT_EQ(bits(node_similarity(g, a, b, options)), bits(want))
              << "seed " << seed << " (" << a << ", " << b << ") " << describe(options);
        }
      }
    }
  }
}

/// `minutes` of a preset in 3-minute windows, built as the analysis
/// commands build them.
std::vector<CommGraph> simulated_windows(const ClusterSpec& spec, std::int64_t minutes) {
  Cluster cluster(spec, 7);
  TelemetryHub hub(ProviderProfile::azure(), 7);
  SimulationDriver driver(cluster, hub);
  const auto monitored = cluster.monitored_ips();
  GraphBuilder builder({.window_minutes = 3, .collapse_threshold = 0.001},
                       {monitored.begin(), monitored.end()});
  hub.set_sink(&builder);
  driver.run(TimeWindow::minutes(0, minutes));
  builder.flush();
  return builder.take_graphs();
}

TEST(SimilarityRowCounts, MatchPairScorerOnSimulatedWindows) {
  const SegmentationOptions product;
  const SimilarityOptions options{.min_score = product.min_similarity};
  for (const auto& [name, spec] : {std::pair{"k8s", presets::k8s_paas(0.125)},
                                   std::pair{"portal", presets::portal(0.05)}}) {
    const std::vector<CommGraph> windows = simulated_windows(spec, 60);
    ASSERT_EQ(windows.size(), 20u) << name;
    for (std::size_t w = 0; w < windows.size(); ++w) {
      const CsrAdjacency csr(windows[w]);
      const WeightedGraph want = reference_clique(csr, options);
      for (const int threads : {1, 4}) {
        const AtThreads at(threads);
        ASSERT_EQ(clique_diff(similarity_clique(windows[w], csr, options), want), "")
            << name << " window " << w << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace ccg
