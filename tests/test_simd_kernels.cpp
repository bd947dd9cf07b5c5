// Cross-TIER determinism of the ported analysis kernels: every simd tier,
// at every thread count, must produce BYTE-identical results — the same
// contract test_parallel_kernels.cpp enforces across threads, extended to
// the {scalar, simd} × {1, 2, 4} grid. All comparisons are on bit patterns
// (bits.hpp), not tolerance, so even +0.0 against -0.0 fails.
//
// On a host without a vector unit the tier list collapses to {scalar} and
// the grid still runs, so the test is portable.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ccg/common/rng.hpp"
#include "ccg/graph/csr.hpp"
#include "ccg/linalg/eigen.hpp"
#include "ccg/linalg/kmeans.hpp"
#include "ccg/linalg/pca.hpp"
#include "ccg/parallel/parallel.hpp"
#include "ccg/segmentation/auto_segment.hpp"
#include "ccg/segmentation/similarity.hpp"
#include "ccg/segmentation/simrank.hpp"
#include "ccg/simd/simd.hpp"
#include "bits.hpp"

namespace ccg {
namespace {

struct GridGuard {
  ~GridGuard() {
    parallel::set_thread_count(0);
    simd::set_tier("auto");
  }
};

std::vector<std::string> selectable_tiers() {
  simd::set_tier("auto");
  std::vector<std::string> tiers{"scalar"};
  const std::string best = simd::tier_name(simd::active_tier());
  if (best != "scalar") tiers.push_back(best);
  return tiers;
}

template <typename Fn>
auto at_grid(const std::string& tier, int threads, Fn&& fn) {
  simd::set_tier(tier);
  parallel::set_thread_count(threads);
  auto result = fn();
  parallel::set_thread_count(0);
  simd::set_tier("auto");
  return result;
}

/// Runs `fn` at (scalar, 1 thread) for the reference, then across the full
/// tier × thread grid, demanding the same bits everywhere.
template <typename Fn>
void expect_grid_identical(Fn&& fn, const std::string& what) {
  const std::vector<std::string> tiers = selectable_tiers();
  const auto reference = bits(at_grid("scalar", 1, fn));
  for (const std::string& tier : tiers) {
    for (const int threads : {1, 2, 4}) {
      ASSERT_EQ(reference, bits(at_grid(tier, threads, fn)))
          << what << " diverged at tier=" << tier << " threads=" << threads;
    }
  }
}

/// Same fixture as test_parallel_kernels.cpp: role-structured graph with
/// shared-neighbor signal plus noise edges.
CommGraph role_graph(std::size_t roles, std::size_t per_role, std::uint64_t seed) {
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

TEST(SimdKernels, SimilarityCliqueIdenticalAcrossTierGrid) {
  GridGuard guard;
  const CommGraph g = role_graph(5, 28, 7);  // 140 nodes
  for (const SimilarityKind kind :
       {SimilarityKind::kJaccard, SimilarityKind::kWeightedJaccard,
        SimilarityKind::kCosine}) {
    const SimilarityOptions options{.kind = kind};
    expect_grid_identical(
        [&] { return edge_map(similarity_clique(g, options)); },
        "similarity kind=" + std::to_string(static_cast<int>(kind)));
  }
}

TEST(SimdKernels, SimilarityLshPathIdenticalAcrossTierGrid) {
  GridGuard guard;
  const CommGraph g = role_graph(5, 28, 11);
  SimilarityOptions options;
  options.exact_pair_limit = 16;  // force the MinHash/LSH path
  const auto run = [&] { return edge_map(similarity_clique(g, options)); };
  ASSERT_FALSE(at_grid("scalar", 1, run).empty());
  expect_grid_identical(run, "similarity lsh");
}

TEST(SimdKernels, SimRankIdenticalAcrossTierGrid) {
  GridGuard guard;
  const CommGraph g = role_graph(4, 22, 13);  // 88 nodes
  for (const bool plus_plus : {false, true}) {
    const SimRankOptions options{.iterations = 3, .plus_plus = plus_plus};
    expect_grid_identical([&] { return simrank_scores(g, options); },
                          std::string("simrank plus_plus=") +
                              (plus_plus ? "true" : "false"));
  }
}

TEST(SimdKernels, JacobiEigenIdenticalAcrossTierGrid) {
  GridGuard guard;
  // n = 300, near the spectral fit's width on the k8s preset.
  const Matrix m = random_symmetric(300, 41);
  expect_grid_identical(
      [&] {
        const EigenDecomposition d = jacobi_eigen(m);
        return std::make_pair(d.values, d.vectors.data());
      },
      "jacobi 300");
}

TEST(SimdKernels, PcaIdenticalAcrossTierGrid) {
  GridGuard guard;
  const Matrix m = random_symmetric(96, 43);
  expect_grid_identical(
      [&] {
        const PcaSummary pca(m);
        return std::make_pair(pca.error_curve(15), pca.reconstruct(8).data());
      },
      "pca");
}

TEST(SimdKernels, KMeansIdenticalAcrossTierGrid) {
  GridGuard guard;
  Rng rng(51);
  Matrix data(300, 8);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    const double center = static_cast<double>(r % 4) * 10.0;
    for (std::size_t c = 0; c < data.cols(); ++c) {
      data(r, c) = center + rng.normal();
    }
  }
  expect_grid_identical(
      [&] {
        const KMeansResult r = kmeans(data, 4, {.seed = 3});
        return std::make_tuple(r.labels, r.centroids.data(), r.inertia);
      },
      "kmeans");
}

/// The CSR-sharing overloads are pure plumbing: handing the kernels a
/// prebuilt CsrAdjacency must not change a single bit relative to the
/// convenience overloads that build their own.
TEST(SimdKernels, CsrSharingOverloadsMatchConvenienceOverloads) {
  GridGuard guard;
  const CommGraph g = role_graph(4, 20, 17);
  const CsrAdjacency csr(g);

  EXPECT_EQ(edge_map(similarity_clique(g, csr)), edge_map(similarity_clique(g)));
  const SimRankOptions sr{.iterations = 3};
  EXPECT_EQ(simrank_scores(g, csr, sr), simrank_scores(g, sr));
  for (const SegmentationMethod method :
       {SegmentationMethod::kJaccardLouvain, SegmentationMethod::kSimRank}) {
    const Segmentation with_csr = auto_segment(g, csr, method);
    const Segmentation without = auto_segment(g, method);
    EXPECT_EQ(with_csr.labels, without.labels);
    EXPECT_EQ(with_csr.segment_count, without.segment_count);
  }
}

}  // namespace
}  // namespace ccg
