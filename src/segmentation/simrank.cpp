#include "ccg/segmentation/simrank.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "ccg/common/expect.hpp"
#include "ccg/graph/csr.hpp"
#include "ccg/parallel/parallel.hpp"
#include "ccg/simd/simd.hpp"

namespace ccg {

namespace {

/// Normalized edge weights for SimRank++: w(a,x) = log1p(bytes) scaled so
/// Σ_x w(a,x) = 1 per node (a random-surfer transition distribution).
/// Flattened parallel to the CSR rows; rows whose total weight is zero are
/// flagged empty (they keep score 0, matching the unweighted degenerate
/// case).
struct TransitionWeights {
  std::vector<double> w;        // aligned with csr row entries
  std::vector<char> nonempty;   // per node
};

TransitionWeights transition_weights(const CsrAdjacency& csr) {
  const std::size_t n = csr.node_count();
  TransitionWeights out;
  out.w.assign(csr.edge_entry_count(), 0.0);
  out.nonempty.assign(n, 0);
  for (NodeId a = 0; a < n; ++a) {
    const auto weights = csr.weights(a);
    const double total = simd::masked_sum(csr.ids(a).data(), weights.data(),
                                          weights.size(), simd::kNoExclude);
    if (total <= 0.0) continue;
    out.nonempty[a] = 1;
    double* row = out.w.data() + csr.offsets()[a];
    for (std::size_t k = 0; k < weights.size(); ++k) {
      row[k] = weights[k] / total;
    }
  }
  return out;
}

/// SimRank++ evidence factor: ev(a,b) = Σ_{i=1..|N(a)∩N(b)|} 2^-i
///                                    = 1 − 2^-|common|.
double evidence(std::size_t common) {
  if (common == 0) return 0.0;
  return 1.0 - std::pow(0.5, static_cast<double>(common));
}

std::vector<double> simrank_scores_impl(const CommGraph& graph,
                                        const CsrAdjacency& csr,
                                        SimRankOptions options) {
  const std::size_t n = graph.node_count();
  CCG_EXPECT(csr.node_count() == n);
  CCG_EXPECT(n <= 3000);
  CCG_EXPECT(options.decay > 0.0 && options.decay < 1.0);
  CCG_EXPECT(options.iterations >= 1);

  std::vector<double> s(n * n, 0.0);
  std::vector<double> next(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) s[i * n + i] = 1.0;

  const auto weights = options.plus_plus ? transition_weights(csr)
                                         : TransitionWeights{};

  // Each sweep reads only `s` and writes `next`; entry (a, b) with a < b is
  // written exactly once (mirrored into (b, a) by the same writer), so rows
  // can be swept in parallel with byte-identical results at any thread
  // count. The inner accumulation gathers b's neighbor columns out of
  // node i's score row — contiguous w and id arrays straight from the CSR,
  // one canonical-geometry reduction per i, summed over i in row order.
  // Small grain: row a costs O((n - a) · deg), so the dynamic chunk
  // scheduler balances the triangular workload.
  for (int iter = 0; iter < options.iterations; ++iter) {
    parallel::parallel_for(n, 8, [&](std::size_t row_begin, std::size_t row_end) {
    for (std::size_t a = row_begin; a < row_end; ++a) {
      next[a * n + a] = 1.0;
      const auto ids_a = csr.ids(static_cast<NodeId>(a));
      for (std::size_t b = a + 1; b < n; ++b) {
        const auto ids_b = csr.ids(static_cast<NodeId>(b));
        double acc = 0.0;
        if (!options.plus_plus) {
          if (ids_a.empty() || ids_b.empty()) {
            next[a * n + b] = next[b * n + a] = 0.0;
            continue;
          }
          for (const std::uint32_t i : ids_a) {
            acc += simd::gather_sum(&s[std::size_t{i} * n], ids_b.data(),
                                    ids_b.size());
          }
          acc *= options.decay / (static_cast<double>(ids_a.size()) *
                                  static_cast<double>(ids_b.size()));
        } else {
          if (!weights.nonempty[a] || !weights.nonempty[b]) {
            next[a * n + b] = next[b * n + a] = 0.0;
            continue;
          }
          const double* wa = weights.w.data() + csr.offsets()[a];
          const double* wb = weights.w.data() + csr.offsets()[b];
          for (std::size_t k = 0; k < ids_a.size(); ++k) {
            acc += wa[k] * simd::gather_dot(&s[std::size_t{ids_a[k]} * n],
                                            ids_b.data(), wb, ids_b.size());
          }
          acc *= options.decay;
        }
        next[a * n + b] = acc;
        next[b * n + a] = acc;
      }
    }
    });
    std::swap(s, next);
  }

  if (options.plus_plus) {
    // Scale by the evidence factor, which damps scores supported by very
    // few common neighbors (an exact integer count). Row a only touches
    // s[a*n ..) plus a per-worker stamp array, so rows parallelize with
    // unchanged arithmetic.
    std::vector<std::unique_ptr<std::vector<std::uint32_t>>> stamps(
        parallel::max_workers());
    parallel::parallel_for_worker(
        n, 8, [&](std::size_t row_begin, std::size_t row_end, std::size_t worker) {
          if (!stamps[worker]) {
            stamps[worker] = std::make_unique<std::vector<std::uint32_t>>(n, 0);
          }
          std::vector<std::uint32_t>& stamp = *stamps[worker];
          for (std::size_t a = row_begin; a < row_end; ++a) {
            const auto va = static_cast<std::uint32_t>(a + 1);
            for (const std::uint32_t x : csr.ids(static_cast<NodeId>(a))) {
              stamp[x] = va;
            }
            for (std::size_t b = 0; b < n; ++b) {
              if (a == b) continue;
              const auto ids_b = csr.ids(static_cast<NodeId>(b));
              const std::size_t common = simd::count_stamped(
                  ids_b.data(), ids_b.size(), stamp.data(), va);
              s[a * n + b] *= evidence(common);
            }
          }
        });
  }
  return s;
}

}  // namespace

std::vector<double> simrank_scores(const CommGraph& graph, SimRankOptions options) {
  const CsrAdjacency csr(graph);
  return simrank_scores_impl(graph, csr, options);
}

std::vector<double> simrank_scores(const CommGraph& graph,
                                   const CsrAdjacency& csr,
                                   SimRankOptions options) {
  return simrank_scores_impl(graph, csr, options);
}

WeightedGraph simrank_clique(const CommGraph& graph, SimRankOptions options) {
  const CsrAdjacency csr(graph);
  return simrank_clique(graph, csr, options);
}

WeightedGraph simrank_clique(const CommGraph& graph, const CsrAdjacency& csr,
                             SimRankOptions options) {
  const std::size_t n = graph.node_count();
  const auto scores = simrank_scores_impl(graph, csr, options);
  WeightedGraph clique(n);
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = a + 1; b < n; ++b) {
      const double score = scores[std::size_t{a} * n + b];
      if (score >= options.min_score) clique.add_edge(a, b, score);
    }
  }
  return clique;
}

}  // namespace ccg
