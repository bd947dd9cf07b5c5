#include "ccg/summarize/graph_pca.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "ccg/common/expect.hpp"
#include "ccg/common/rng.hpp"
#include "ccg/graph/builder.hpp"
#include "ccg/graph/delta.hpp"
#include "ccg/linalg/eigen.hpp"
#include "ccg/simd/simd.hpp"
#include "ccg/summarize/anomaly.hpp"
#include "ccg/workload/driver.hpp"
#include "ccg/workload/presets.hpp"
#include "bits.hpp"

namespace ccg {
namespace {

NodeId ip_node(CommGraph& g, std::uint32_t ip) {
  return g.add_node(NodeKey::for_ip(IpAddr(ip)));
}

void edge(CommGraph& g, NodeId a, NodeId b, std::uint64_t bytes) {
  g.add_edge_volume(a, b, bytes, 0, 1, 0, 1, 1);
}

/// Block-structured graph: `blocks` groups of `size` nodes, dense inside.
CommGraph block_graph(std::size_t blocks, std::size_t size, std::uint64_t bytes,
                      std::uint32_t ip_base = 1000) {
  CommGraph g;
  std::vector<NodeId> nodes;
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t i = 0; i < size; ++i) {
      nodes.push_back(ip_node(g, static_cast<std::uint32_t>(ip_base + b * 100 + i)));
    }
  }
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t i = 0; i < size; ++i) {
      for (std::size_t j = i + 1; j < size; ++j) {
        edge(g, nodes[b * size + i], nodes[b * size + j], bytes);
      }
    }
  }
  return g;
}

TEST(NodeIndex, StableAcrossGraphs) {
  CommGraph g1;
  ip_node(g1, 1);
  ip_node(g1, 2);
  CommGraph g2;
  ip_node(g2, 2);
  ip_node(g2, 3);

  NodeIndex idx = NodeIndex::from_graphs({&g1, &g2});
  EXPECT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx.row_of(NodeKey::for_ip(IpAddr(1u))), 0u);
  EXPECT_EQ(idx.row_of(NodeKey::for_ip(IpAddr(2u))), 1u);
  EXPECT_EQ(idx.row_of(NodeKey::for_ip(IpAddr(3u))), 2u);
  EXPECT_EQ(idx.row_of(NodeKey::for_ip(IpAddr(9u))), NodeIndex::npos);
}

TEST(AdjacencyMatrix, SymmetricWithLogScale) {
  CommGraph g;
  const NodeId a = ip_node(g, 1);
  const NodeId b = ip_node(g, 2);
  edge(g, a, b, 1000);
  const NodeIndex idx = NodeIndex::from_graph(g);
  const Matrix m = adjacency_matrix(g, idx);
  EXPECT_TRUE(m.is_symmetric());
  EXPECT_NEAR(m(0, 1), std::log1p(1000.0), 1e-12);

  const Matrix raw = adjacency_matrix(g, idx, {.log_scale = false});
  EXPECT_DOUBLE_EQ(raw(0, 1), 1000.0);
}

TEST(AdjacencyMatrix, UnindexedNodesReportedAsMissedBytes) {
  CommGraph baseline;
  ip_node(baseline, 1);
  ip_node(baseline, 2);
  const NodeIndex idx = NodeIndex::from_graph(baseline);

  CommGraph later;
  const NodeId a = ip_node(later, 1);
  const NodeId stranger = ip_node(later, 77);
  edge(later, a, stranger, 5000);

  std::uint64_t missed = 0;
  const Matrix m = adjacency_matrix(later, idx, {}, &missed);
  EXPECT_EQ(missed, 5000u);
  EXPECT_DOUBLE_EQ(m.abs_sum(), 0.0);
}

TEST(PcaOfGraph, BlockGraphNeedsOneComponentPerBlock) {
  // Each uniform block c(J - I) has one dominant eigenvalue c(n-1) plus
  // n-1 eigenvalues of -c, so k=3 captures the three block structures.
  // Analytically, |M - M3|_1 / |M|_1 = (3 * 14c) / (3 * 56c) = 0.25 for
  // 8-node blocks (the paper's §2.2 claim in miniature: error collapses
  // once k reaches the number of structures).
  const CommGraph g = block_graph(3, 8, 100'000);
  PcaSummary pca = pca_of_graph(g);
  EXPECT_NEAR(pca.reconstruction_error(3), 0.25, 0.02);
  EXPECT_GT(pca.reconstruction_error(1), 0.5);
  // Full rank reconstructs exactly.
  EXPECT_NEAR(pca.reconstruction_error(pca.dimension()), 0.0, 1e-8);
  // And the error curve is monotone through the interesting region.
  const auto curve = pca.error_curve(10);
  for (std::size_t k = 1; k < curve.size(); ++k) {
    EXPECT_LE(curve[k], curve[k - 1] + 1e-9);
  }
}

TEST(SpectralDetector, QuietOnBaselineLikeTraffic) {
  // Baseline: three stable blocks over two "hours" with mild noise.
  Rng rng(5);
  auto noisy_block_graph = [&](std::uint64_t base) {
    CommGraph g = block_graph(3, 8, base);
    return g;
  };
  const CommGraph h0 = noisy_block_graph(100'000);
  const CommGraph h1 = noisy_block_graph(105'000);
  const CommGraph h2 = noisy_block_graph(95'000);

  SpectralAnomalyDetector detector({.rank = 6});
  detector.fit({&h0, &h1});
  const auto score = detector.score(h2);
  EXPECT_LT(std::abs(score.zscore), 3.0) << score.to_string();
  EXPECT_FALSE(detector.is_alert(score));
  EXPECT_EQ(score.new_node_byte_share, 0.0);
}

TEST(SpectralDetector, FlagsStructuralChange) {
  const CommGraph h0 = block_graph(3, 8, 100'000);
  const CommGraph h1 = block_graph(3, 8, 102'000);

  SpectralAnomalyDetector detector({.rank = 4});
  detector.fit({&h0, &h1});

  // Scan-like change: one node suddenly touches every other node.
  CommGraph attacked = block_graph(3, 8, 100'000);
  const NodeId scanner = 0;
  for (NodeId v = 1; v < attacked.node_count(); ++v) {
    if (!attacked.find_edge(scanner, v)) {
      attacked.add_edge_volume(scanner, v, 60'000, 0, 60, 0, 1, 1);
    }
  }
  const auto score = detector.score(attacked);
  EXPECT_TRUE(detector.is_alert(score)) << score.to_string();
  EXPECT_GT(score.zscore, 3.0);
}

TEST(SpectralDetector, FlagsNewNodeTraffic) {
  const CommGraph h0 = block_graph(3, 8, 100'000);
  SpectralAnomalyDetector detector({.rank = 4});
  detector.fit({&h0});

  // Exfil-like: traffic to an endpoint the baseline never saw.
  CommGraph exfil = block_graph(3, 8, 100'000);
  const NodeId insider = 0;
  const NodeId sink = ip_node(exfil, 0x64000001);
  edge(exfil, insider, sink, 50'000'000);

  const auto score = detector.score(exfil);
  EXPECT_GT(score.new_node_byte_share, 0.02);
  EXPECT_TRUE(detector.is_alert(score));
}

TEST(SpectralDetector, TracksEdgeChurnAcrossScores) {
  const CommGraph h0 = block_graph(3, 8, 100'000);
  SpectralAnomalyDetector detector({.rank = 4});
  detector.fit({&h0});

  const auto first = detector.score(h0);
  EXPECT_DOUBLE_EQ(first.edge_jaccard_vs_prev, 1.0);  // no previous yet
  const auto second = detector.score(h0);
  EXPECT_DOUBLE_EQ(second.edge_jaccard_vs_prev, 1.0);  // identical to previous

  const CommGraph different = block_graph(3, 8, 100'000, /*ip_base=*/50'000);
  const auto third = detector.score(different);
  EXPECT_LT(third.edge_jaccard_vs_prev, 0.1);
}

/// Per-window graphs of a simulated k8s slice, cut like the CLI cuts them.
std::vector<CommGraph> k8s_windows(std::int64_t minutes, std::int64_t window_minutes,
                                   std::uint64_t seed) {
  Cluster cluster(presets::k8s_paas(0.02), seed);
  TelemetryHub hub(ProviderProfile::azure(), seed);
  SimulationDriver driver(cluster, hub);
  const auto ips = cluster.monitored_ips();
  GraphBuilder builder({.facet = GraphFacet::kIp,
                        .window_minutes = window_minutes,
                        .collapse_threshold = 0.001},
                       {ips.begin(), ips.end()});
  hub.set_sink(&builder);
  driver.run(TimeWindow::minutes(0, minutes));
  builder.flush();
  return builder.take_graphs();
}

TEST(SpectralDetector, EdgeChurnEqualsDiffGraphsOnK8sWindows) {
  const auto windows = k8s_windows(30, 3, 7);
  ASSERT_GE(windows.size(), 8u);

  // The premise: consecutive windows number the same node differently, and
  // their node and edge sets differ.
  bool renumbered = false, nodes_churned = false, edges_churned = false;
  for (std::size_t i = 1; i < windows.size(); ++i) {
    const CommGraph& prev = windows[i - 1];
    const CommGraph& cur = windows[i];
    for (NodeId v = 0; v < cur.node_count(); ++v) {
      const auto before = prev.find_node(cur.key(v));
      renumbered |= before.has_value() && *before != v;
    }
    const GraphDelta delta = diff_graphs(prev, cur);
    nodes_churned |= !delta.nodes_added.empty() || !delta.nodes_removed.empty();
    edges_churned |= delta.edge_jaccard < 1.0;
  }
  ASSERT_TRUE(renumbered && nodes_churned && edges_churned);

  // Churn ignores the fitted subspace, so a small baseline keeps this fast.
  const CommGraph baseline = block_graph(2, 4, 10'000);
  SpectralDetectorOptions options;
  options.rank = 2;
  SpectralAnomalyDetector detector(options);
  detector.fit({&baseline});
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const double got = detector.score(windows[i]).edge_jaccard_vs_prev;
    const double want = i == 0 ? 1.0 : diff_graphs(windows[i - 1], windows[i]).edge_jaccard;
    EXPECT_EQ(got, want) << "window " << i;
  }

  // A refit forgets the previous window.
  detector.fit({&baseline});
  EXPECT_EQ(detector.score(windows[3]).edge_jaccard_vs_prev, 1.0);
  EXPECT_EQ(detector.score(windows[5]).edge_jaccard_vs_prev,
            diff_graphs(windows[3], windows[5]).edge_jaccard);
}

TEST(SpectralDetector, RequiresFitBeforeScore) {
  SpectralAnomalyDetector detector;
  const CommGraph g = block_graph(1, 4, 1000);
  EXPECT_THROW(detector.score(g), ContractViolation);
  EXPECT_THROW(detector.fit({}), ContractViolation);
}

/// Window over nodes [first_ip, last_ip] joined with probability p, plus
/// `isolated` edgeless nodes: seeded, with log-spread byte volumes.
CommGraph random_window(Rng& rng, std::uint32_t first_ip, std::uint32_t last_ip,
                        double p, std::uint32_t isolated) {
  CommGraph g;
  std::vector<NodeId> nodes;
  for (std::uint32_t ip = first_ip; ip <= last_ip; ++ip) nodes.push_back(ip_node(g, ip));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      if (rng.chance(p)) edge(g, nodes[i], nodes[j], 1 + rng.uniform(1ull << rng.uniform(30)));
    }
  }
  for (std::uint32_t i = 0; i < isolated; ++i) ip_node(g, 900 + first_ip + i);
  return g;
}

/// The dense definition of the score: |M − B(BᵀMB)Bᵀ|₁ / |M|₁.
double dense_spectral_error(const Matrix& m, const Matrix& basis) {
  const Matrix bt = basis.transpose();
  const Matrix s = bt.multiply(m).multiply(basis);
  const Matrix recon = basis.multiply(s).multiply(bt);
  const double denom = m.abs_sum();
  return denom == 0.0 ? 0.0 : (m - recon).abs_sum() / denom;
}

/// (rank, simd tier): the detector's score must equal the dense chain bit
/// for bit at every tier, both when k < n and when k = n (the tiny preset's
/// case, where the residual is rounding noise).
class SpectralScoreBits
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::string>> {};

TEST_P(SpectralScoreBits, SparseScoreEqualsDenseChain) {
  const auto [rank, tier] = GetParam();
  if (tier != "scalar" && !simd::tier_available(simd::Tier::kAvx2)) {
    GTEST_SKIP() << tier << " is not available on this host";
  }
  ASSERT_TRUE(simd::set_tier(tier));
  struct TierGuard {
    ~TierGuard() { simd::set_tier("auto"); }
  } guard;

  // Fit windows over nodes 1..40, each with its own edgeless nodes.
  Rng rng(2024);
  std::vector<CommGraph> fit_windows;
  for (std::uint32_t w = 0; w < 3; ++w) {
    fit_windows.push_back(random_window(rng, 1, 40, 0.15, 2 + w));
  }
  const std::vector<const CommGraph*> baseline = {&fit_windows[0], &fit_windows[1],
                                                  &fit_windows[2]};
  SpectralDetectorOptions options;
  options.rank = rank;
  SpectralAnomalyDetector detector(options);
  detector.fit(baseline);

  // The basis fit() computes, rebuilt from the same jacobi_eigen call.
  const NodeIndex& index = detector.index();
  const std::size_t n = index.size();
  const std::size_t k = std::min(rank, n);
  ASSERT_EQ(rank < n, rank == 6) << "n=" << n;
  Matrix mean(n, n);
  for (const CommGraph* g : baseline) mean = mean + adjacency_matrix(*g, index);
  mean = mean.scaled(1.0 / static_cast<double>(baseline.size()));
  const EigenDecomposition eig = jacobi_eigen(mean);
  Matrix basis(n, k);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < n; ++i) basis(i, j) = eig.vectors(i, j);
  }
  double sum = 0.0;
  for (const CommGraph* g : baseline) {
    sum += dense_spectral_error(adjacency_matrix(*g, index), basis);
  }

  // Scored windows: nodes 1..4 absent (zero rows), 41..48 unknown to the
  // fit, and last a window whose every edge touches an unknown node.
  std::vector<CommGraph> scored;
  for (int w = 0; w < 4; ++w) scored.push_back(random_window(rng, 5, 48, 0.15, 3));
  scored.push_back(random_window(rng, 41, 60, 0.3, 0));
  for (std::size_t w = 0; w < scored.size(); ++w) {
    const AnomalyScore score = detector.score(scored[w]);
    const double want = dense_spectral_error(adjacency_matrix(scored[w], index), basis);
    EXPECT_EQ(bits(score.spectral_error), bits(want))
        << "window " << w << ": " << score.spectral_error << " vs " << want;
    EXPECT_EQ(bits(score.baseline_mean), bits(sum / 3.0));
    EXPECT_GT(score.new_node_byte_share, 0.0);
  }
  EXPECT_EQ(detector.score(scored.back()).spectral_error, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    RankAndTier, SpectralScoreBits,
    ::testing::Combine(::testing::Values(std::size_t{6}, std::size_t{64}),
                       ::testing::Values(std::string("scalar"), std::string("avx2"))),
    [](const ::testing::TestParamInfo<SpectralScoreBits::ParamType>& info) {
      return (std::get<0>(info.param) == 6 ? std::string("RankBelowN_")
                                           : std::string("RankAtLeastN_")) +
             std::get<1>(info.param);
    });

}  // namespace
}  // namespace ccg
