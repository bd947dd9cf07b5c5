// Cross-thread-count determinism of the parallelized analysis kernels, and
// agreement between similarity_clique's exact and LSH candidate paths.
//
// The contract under test is strict: `--threads N` must be BYTE-identical
// to `--threads 1` for similarity and SimRank, which run on parallel_for, and
// for Jacobi, PCA and k-means, which run serially at any thread count.
// Every comparison below is on bit patterns (bits.hpp), not tolerance, so
// even +0.0 against -0.0 fails.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "ccg/common/rng.hpp"
#include "ccg/linalg/eigen.hpp"
#include "ccg/linalg/kmeans.hpp"
#include "ccg/linalg/pca.hpp"
#include "ccg/parallel/parallel.hpp"
#include "ccg/segmentation/similarity.hpp"
#include "ccg/segmentation/simrank.hpp"
#include "bits.hpp"

namespace ccg {
namespace {

struct ThreadCountGuard {
  ~ThreadCountGuard() { parallel::set_thread_count(0); }
};

/// Synthetic multi-role cluster: role r of `roles` has `per_role` members,
/// each talking to a seeded random subset of the next role's members —
/// plenty of shared-neighbor structure for similarity and SimRank, plus
/// random cross-role noise edges so the graph is not block-trivial.
CommGraph role_graph(std::size_t roles, std::size_t per_role,
                     std::uint64_t seed) {
  CommGraph g;
  Rng rng(seed);
  std::vector<std::vector<NodeId>> members(roles);
  for (std::size_t r = 0; r < roles; ++r) {
    for (std::size_t i = 0; i < per_role; ++i) {
      members[r].push_back(g.add_node(
          NodeKey::for_ip(IpAddr(static_cast<std::uint32_t>(r * 1000 + i + 1)))));
    }
  }
  for (std::size_t r = 0; r + 1 < roles; ++r) {
    for (const NodeId a : members[r]) {
      for (const NodeId b : members[r + 1]) {
        if (!rng.chance(0.6)) continue;
        const auto bytes = 500 + rng.uniform(100000);
        g.add_edge_volume(a, b, bytes, bytes / 3, 2, 1, 1, 2, /*client_ab=*/1,
                          /*client_ba=*/0,
                          /*port=*/static_cast<std::int32_t>(5000 + r));
      }
    }
  }
  // Noise edges across arbitrary pairs.
  const std::size_t n = g.node_count();
  for (std::size_t i = 0; i < n; ++i) {
    const auto a = static_cast<NodeId>(rng.uniform(n));
    const auto b = static_cast<NodeId>(rng.uniform(n));
    if (a == b) continue;
    g.add_edge_volume(a, b, 100 + rng.uniform(5000), 50, 1, 1, 1, 1);
  }
  return g;
}

using EdgeMap = std::map<std::pair<std::uint32_t, std::uint32_t>, double>;

EdgeMap edge_map(const WeightedGraph& g) {
  EdgeMap out;
  for (std::uint32_t a = 0; a < g.size(); ++a) {
    for (const auto& [b, w] : g.neighbors(a)) {
      if (a < b) out[{a, b}] += w;
    }
  }
  return out;
}

template <typename Fn>
auto at_threads(int threads, Fn&& fn) {
  parallel::set_thread_count(threads);
  auto result = fn();
  parallel::set_thread_count(0);
  return result;
}

// --- similarity --------------------------------------------------------------

TEST(ParallelKernels, SimilarityCliqueBitIdenticalAcrossThreads) {
  ThreadCountGuard guard;
  const CommGraph g = role_graph(6, 40, 7);  // 240 nodes
  for (const SimilarityKind kind :
       {SimilarityKind::kJaccard, SimilarityKind::kWeightedJaccard,
        SimilarityKind::kCosine}) {
    const SimilarityOptions options{.kind = kind};
    const EdgeMap serial =
        at_threads(1, [&] { return edge_map(similarity_clique(g, options)); });
    for (const int threads : {2, 5}) {
      const EdgeMap parallel_run = at_threads(
          threads, [&] { return edge_map(similarity_clique(g, options)); });
      ASSERT_EQ(bits(serial), bits(parallel_run)) << "threads=" << threads;
    }
  }
}

TEST(ParallelKernels, SimilarityLshPathBitIdenticalAcrossThreads) {
  ThreadCountGuard guard;
  const CommGraph g = role_graph(6, 40, 11);
  SimilarityOptions options;
  options.exact_pair_limit = 16;  // force the MinHash/LSH path
  const EdgeMap serial =
      at_threads(1, [&] { return edge_map(similarity_clique(g, options)); });
  ASSERT_FALSE(serial.empty());
  for (const int threads : {2, 5}) {
    const EdgeMap parallel_run = at_threads(
        threads, [&] { return edge_map(similarity_clique(g, options)); });
    ASSERT_EQ(bits(serial), bits(parallel_run)) << "threads=" << threads;
  }
}

/// LSH prunes candidates but scores them exactly, so its clique must be a
/// subset of the exact clique with identical weights — and it must not miss
/// the strongly similar pairs the banding is tuned for (J >~ 0.25).
TEST(ParallelKernels, LshAndExactPathsAgreeStraddlingTheLimit) {
  ThreadCountGuard guard;
  CommGraph g = role_graph(5, 30, 23);  // 150 nodes
  // Append twin pairs whose tagged feature sets are IDENTICAL (same peers,
  // same direction, same port): their typed Jaccard is exactly 1.0 and
  // their MinHash signatures are equal, so every band co-buckets them —
  // LSH recovery of these pairs is structural, not probabilistic.
  Rng twin_rng(77);
  const std::size_t base = g.node_count();
  for (std::uint32_t t = 0; t < 8; ++t) {
    const NodeId u =
        g.add_node(NodeKey::for_ip(IpAddr(900000 + 2 * t)));
    const NodeId v =
        g.add_node(NodeKey::for_ip(IpAddr(900001 + 2 * t)));
    for (int k = 0; k < 12; ++k) {
      const auto peer = static_cast<NodeId>(twin_rng.uniform(base));
      for (const NodeId twin : {u, v}) {
        g.add_edge_volume(twin, peer, 4096, 1024, 2, 1, 1, 2, /*client_ab=*/1,
                          /*client_ba=*/0,
                          /*port=*/static_cast<std::int32_t>(9000 + t));
      }
    }
  }
  SimilarityOptions exact_options;
  exact_options.exact_pair_limit = 10000;  // force all-pairs
  SimilarityOptions lsh_options;
  lsh_options.exact_pair_limit = 16;  // force LSH on the same graph

  const EdgeMap exact = edge_map(similarity_clique(g, exact_options));
  const EdgeMap lsh = edge_map(similarity_clique(g, lsh_options));

  // Every LSH edge exists in the exact clique with the same score bits.
  for (const auto& [pair, weight] : lsh) {
    const auto it = exact.find(pair);
    ASSERT_NE(it, exact.end())
        << "LSH invented pair " << pair.first << "-" << pair.second;
    ASSERT_EQ(bits(it->second), bits(weight));
  }
  // Every strongly similar exact pair is recovered by the banding. The
  // only pairs above 0.75 in this graph are the injected twins (role pairs
  // top out near 0.45 at 0.6 edge density), and equal signatures collide
  // in every one of the 24 bands.
  std::size_t strong = 0, recovered = 0;
  for (const auto& [pair, weight] : exact) {
    if (weight < 0.75) continue;
    ++strong;
    recovered += lsh.count(pair);
  }
  ASSERT_GT(strong, 0u);
  EXPECT_EQ(recovered, strong);
}

/// The default limit itself: just below stays exact (clique == forced-exact
/// run), just above switches to LSH (clique == forced-LSH run).
TEST(ParallelKernels, DefaultLimitStraddle) {
  ThreadCountGuard guard;
  const SimilarityOptions defaults;
  // Two graphs straddling exact_pair_limit, scaled down via the option so
  // the test stays fast: same code path selection logic as the 2500 default.
  SimilarityOptions small_limit = defaults;
  small_limit.exact_pair_limit = 120;

  const CommGraph below = role_graph(4, 30, 31);  // 120 nodes == limit
  const CommGraph above = role_graph(4, 31, 31);  // 124 nodes > limit

  SimilarityOptions forced_exact = small_limit;
  forced_exact.exact_pair_limit = 100000;
  SimilarityOptions forced_lsh = small_limit;
  forced_lsh.exact_pair_limit = 1;

  // At the limit: the small_limit run must equal the forced-exact run.
  EXPECT_EQ(edge_map(similarity_clique(below, small_limit)),
            edge_map(similarity_clique(below, forced_exact)));
  // Over the limit: the small_limit run must equal the forced-LSH run.
  EXPECT_EQ(edge_map(similarity_clique(above, small_limit)),
            edge_map(similarity_clique(above, forced_lsh)));
}

// --- SimRank -----------------------------------------------------------------

TEST(ParallelKernels, SimRankBitIdenticalAcrossThreads) {
  ThreadCountGuard guard;
  const CommGraph g = role_graph(5, 24, 13);  // 120 nodes
  for (const bool plus_plus : {false, true}) {
    const SimRankOptions options{.iterations = 4, .plus_plus = plus_plus};
    const std::vector<double> serial =
        at_threads(1, [&] { return simrank_scores(g, options); });
    for (const int threads : {2, 5}) {
      const std::vector<double> parallel_run =
          at_threads(threads, [&] { return simrank_scores(g, options); });
      ASSERT_EQ(bits(serial), bits(parallel_run))
          << "threads=" << threads << " plus_plus=" << plus_plus;
    }
  }
}

// --- PCA / eigen -------------------------------------------------------------

Matrix random_symmetric(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.normal();
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

TEST(ParallelKernels, JacobiEigenBitIdenticalAcrossThreads) {
  ThreadCountGuard guard;
  // n = 300, near the spectral fit's width on the k8s preset.
  const Matrix m = random_symmetric(300, 41);
  const EigenDecomposition serial =
      at_threads(1, [&] { return jacobi_eigen(m); });
  for (const int threads : {2, 4}) {
    const EigenDecomposition parallel_run =
        at_threads(threads, [&] { return jacobi_eigen(m); });
    ASSERT_EQ(bits(serial.values), bits(parallel_run.values)) << "threads=" << threads;
    ASSERT_EQ(bits(serial.vectors.data()), bits(parallel_run.vectors.data()))
        << "threads=" << threads;
  }
}

TEST(ParallelKernels, PcaCurveAndReconstructionBitIdenticalAcrossThreads) {
  ThreadCountGuard guard;
  const Matrix m = random_symmetric(96, 43);
  const auto run = [&] {
    const PcaSummary pca(m);
    return std::make_pair(pca.error_curve(20), pca.reconstruct(10).data());
  };
  const auto serial = at_threads(1, run);
  EXPECT_EQ(serial.first.front(), 1.0);  // k=0 residual is the original
  for (const int threads : {2, 4}) {
    const auto parallel_run = at_threads(threads, run);
    ASSERT_EQ(bits(serial.first), bits(parallel_run.first)) << "threads=" << threads;
    ASSERT_EQ(bits(serial.second), bits(parallel_run.second)) << "threads=" << threads;
  }
}

// --- k-means -----------------------------------------------------------------

TEST(ParallelKernels, KMeansBitIdenticalAcrossThreads) {
  ThreadCountGuard guard;
  Rng rng(51);
  Matrix data(400, 8);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    const double center = static_cast<double>(r % 4) * 10.0;
    for (std::size_t c = 0; c < data.cols(); ++c) {
      data(r, c) = center + rng.normal();
    }
  }
  const KMeansResult serial =
      at_threads(1, [&] { return kmeans(data, 4, {.seed = 3}); });
  for (const int threads : {2, 4}) {
    const KMeansResult parallel_run =
        at_threads(threads, [&] { return kmeans(data, 4, {.seed = 3}); });
    ASSERT_EQ(serial.labels, parallel_run.labels) << "threads=" << threads;
    ASSERT_EQ(bits(serial.centroids.data()), bits(parallel_run.centroids.data()));
    ASSERT_EQ(bits(serial.inertia), bits(parallel_run.inertia));
  }
}

}  // namespace
}  // namespace ccg
