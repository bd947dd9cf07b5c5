#include "ccg/segmentation/similarity.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <utility>

#include "ccg/common/expect.hpp"
#include "ccg/graph/csr.hpp"
#include "ccg/parallel/parallel.hpp"
#include "ccg/simd/simd.hpp"

namespace ccg {

namespace {

/// MinHash signature width (u64 lanes per node) and LSH band geometry.
/// Stable contract values: 24 bands of 4 catch J >~ 0.25 pairs.
constexpr int kMinHashFunctions = 96;
constexpr int kLshBandSize = 4;

using CandidatePair = std::pair<std::uint32_t, std::uint32_t>;

/// State for scoring pairs (a, *): a's neighborhood stamped into arrays.
/// Column types match the simd primitives (stamp/tag/port are gatherable
/// 32-bit lanes, weight is a gatherable double lane).
struct StampedView {
  std::vector<std::uint32_t> stamp;  // stamp[x] == version  <=>  x ∈ N(a)
  std::vector<std::int32_t> tag;     // a's direction tag for x
  std::vector<std::int32_t> port;    // server-port hint of the (a, x) edge
  std::vector<double> weight;        // a's log-byte weight for x
  std::uint32_t version = 0;

  explicit StampedView(std::size_t n)
      : stamp(n, 0), tag(n, 0), port(n, -1), weight(n, 0.0) {}
};

/// Stamps node a's CSR row into the view; returns |N(a)|.
std::size_t stamp_node(const CsrAdjacency& csr, std::uint32_t a,
                       StampedView& view) {
  ++view.version;
  const auto ids = csr.ids(a);
  const auto tags = csr.tags(a);
  const auto ports = csr.ports(a);
  const auto weights = csr.weights(a);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const std::uint32_t x = ids[k];
    view.stamp[x] = view.version;
    view.tag[x] = tags[k];
    view.port[x] = ports[k];
    view.weight[x] = weights[k];
  }
  return ids.size();
}

double score_pair(const CsrAdjacency& csr, const StampedView& view,
                  std::uint32_t a, std::uint32_t b, std::size_t deg_a,
                  const SimilarityOptions& options) {
  const std::uint32_t exclude_a =
      options.exclude_self_edges ? a : simd::kNoExclude;
  const auto ids_b = csr.ids(b);
  const std::size_t nb = ids_b.size();
  switch (options.kind) {
    case SimilarityKind::kJaccard: {
      const simd::JaccardCounts jc = simd::jaccard_counts(
          ids_b.data(), csr.tags(b).data(), csr.ports(b).data(), nb,
          view.stamp.data(), view.tag.data(), view.port.data(), view.version,
          options.use_direction, exclude_a);
      const std::size_t uni = deg_a + jc.deg_b - jc.inter;
      return uni == 0 ? 0.0
                      : static_cast<double>(jc.inter) /
                            static_cast<double>(uni);
    }
    case SimilarityKind::kWeightedJaccard: {
      // Ruzicka: Σ min(wa, wb) / Σ max(wa, wb) over the neighbor union,
      // where missing neighbors have weight 0.
      const simd::WeightedOverlap wo = simd::weighted_overlap(
          ids_b.data(), csr.weights(b).data(), nb, view.stamp.data(),
          view.weight.data(), view.version, exclude_a);
      const double a_total = simd::masked_sum(
          csr.ids(a).data(), csr.weights(a).data(), csr.degree(a),
          options.exclude_self_edges ? b : simd::kNoExclude);
      const double sum_max = wo.sum_max_matched + (a_total - wo.matched_a) +
                             (wo.b_total - wo.matched_b);
      return sum_max <= 0.0 ? 0.0 : wo.sum_min / sum_max;
    }
    case SimilarityKind::kCosine: {
      // Scalar on purpose: the dot needs a stamp-gated gather (stale
      // view.weight entries must not contribute), which no backend
      // primitive models; the loop is tier-independent by construction.
      const auto w_b = csr.weights(b);
      double dot = 0.0, norm_b = 0.0;
      for (std::size_t k = 0; k < nb; ++k) {
        const std::uint32_t x = ids_b[k];
        if (options.exclude_self_edges && x == a) continue;
        const double wb = w_b[k];
        norm_b += wb * wb;
        if (view.stamp[x] == view.version) dot += view.weight[x] * wb;
      }
      const auto ids_a = csr.ids(a);
      const auto w_a = csr.weights(a);
      double norm_a = 0.0;
      for (std::size_t k = 0; k < ids_a.size(); ++k) {
        if (options.exclude_self_edges && ids_a[k] == b) continue;
        norm_a += w_a[k] * w_a[k];
      }
      const double denom = std::sqrt(norm_a) * std::sqrt(norm_b);
      return denom <= 0.0 ? 0.0 : dot / denom;
    }
  }
  return 0.0;
}

/// The MinHash salt table: one fixed 32-bit salt per hash function.
const std::uint64_t* minhash_salts() {
  static const auto salts = [] {
    std::vector<std::uint64_t> s(kMinHashFunctions);
    for (int h = 0; h < kMinHashFunctions; ++h) {
      s[h] = static_cast<std::uint64_t>(
          static_cast<std::uint32_t>(h * 0x9E3779B9u));
    }
    return s;
  }();
  return salts.data();
}

/// Stamps one signature row from v's CSR row. The per-feature lane
/// updates run on the simd tier (min over exact u64 hashes, so any lane
/// order gives the same signature).
void minhash_stamp_row(const CsrAdjacency& csr, NodeId v, bool use_direction,
                       std::uint64_t* row) {
  std::fill(row, row + kMinHashFunctions, ~std::uint64_t{0});
  const auto ids = csr.ids(v);
  const auto tags = csr.tags(v);
  const auto ports = csr.ports(v);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const std::int32_t tag = use_direction ? tags[k] : CsrAdjacency::kTagMixed;
    const std::int32_t port = use_direction ? ports[k] : -1;
    const std::uint64_t feature =
        ((std::uint64_t{ids[k]} << 2) | static_cast<std::uint64_t>(tag)) ^
        (static_cast<std::uint64_t>(port + 1) << 40);
    simd::minhash_update(feature << 8, minhash_salts(), row, kMinHashFunctions);
  }
}

/// MinHash signatures over (neighbor, direction-tag, port) features,
/// flattened n x kMinHashFunctions (row v at sig[v * kMinHashFunctions]).
/// Rows are independent -> parallel over nodes.
std::vector<std::uint64_t> minhash_signatures(const CsrAdjacency& csr,
                                              bool use_direction) {
  const std::size_t n = csr.node_count();
  std::vector<std::uint64_t> sig(n * kMinHashFunctions);
  parallel::parallel_for(n, 32, [&](std::size_t begin, std::size_t end) {
    for (std::size_t v = begin; v < end; ++v) {
      minhash_stamp_row(csr, static_cast<NodeId>(v), use_direction,
                        sig.data() + v * kMinHashFunctions);
    }
  });
  return sig;
}

/// LSH banding: each band buckets nodes by a hash of its signature slice
/// and emits co-bucketed pairs. Bands are independent -> one chunk per
/// band; the per-band pair lists are concatenated in band order, then
/// sorted and deduplicated, which yields the same sorted unique candidate
/// list at any thread count.
std::vector<CandidatePair> lsh_candidates(const CsrAdjacency& csr,
                                          const std::vector<std::uint64_t>& sig) {
  const std::size_t n = csr.node_count();
  const int bands = kMinHashFunctions / kLshBandSize;
  std::vector<std::vector<CandidatePair>> band_pairs(bands);
  parallel::parallel_for(
      static_cast<std::size_t>(bands), 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t band = begin; band < end; ++band) {
          std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets;
          for (std::uint32_t v = 0; v < n; ++v) {
            if (csr.degree(v) == 0) continue;
            std::uint64_t h = 0xCBF29CE484222325ull;
            for (int j = 0; j < kLshBandSize; ++j) {
              h = simd::mix64(
                  h ^ sig[v * kMinHashFunctions + band * kLshBandSize + j]);
            }
            buckets[h].push_back(v);
          }
          for (const auto& [hash, members] : buckets) {
            if (members.size() < 2 || members.size() > 4096) continue;
            for (std::size_t i = 0; i < members.size(); ++i) {
              for (std::size_t j = i + 1; j < members.size(); ++j) {
                band_pairs[band].emplace_back(members[i], members[j]);
              }
            }
          }
        }
      });

  std::vector<CandidatePair> candidates;
  std::size_t total = 0;
  for (const auto& pairs : band_pairs) total += pairs.size();
  candidates.reserve(total);
  for (const auto& pairs : band_pairs) {
    candidates.insert(candidates.end(), pairs.begin(), pairs.end());
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  return candidates;
}

/// Chunks partition the (a-major sorted) candidate list; each worker keeps
/// one reusable StampedView and re-stamps whenever the first endpoint
/// changes inside its chunk, so the stamp arrays are rebuilt at most once
/// per (node, chunk). Scores land in per-candidate slots, so the result is
/// byte-identical at any thread count.
void score_candidates(const CsrAdjacency& csr,
                      std::span<const CandidatePair> candidates,
                      const SimilarityOptions& options, double* scores) {
  const std::size_t n = csr.node_count();
  std::vector<std::unique_ptr<StampedView>> views(parallel::max_workers());
  parallel::parallel_for_worker(
      candidates.size(), 512,
      [&](std::size_t begin, std::size_t end, std::size_t worker) {
        if (!views[worker]) views[worker] = std::make_unique<StampedView>(n);
        StampedView& view = *views[worker];
        std::uint32_t current_a = static_cast<std::uint32_t>(n);  // invalid
        std::size_t deg_a_full = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const auto [a, b] = candidates[i];
          if (a != current_a) {
            current_a = a;
            deg_a_full = stamp_node(csr, a, view);
          }
          // Exclude a direct a~b edge from both neighborhoods.
          std::size_t deg_a = deg_a_full;
          const bool b_in_a = view.stamp[b] == view.version;
          const std::uint32_t saved = view.stamp[b];
          if (options.exclude_self_edges && b_in_a) {
            view.stamp[b] = 0;
            --deg_a;
          }
          scores[i] = score_pair(csr, view, a, b, deg_a, options);
          if (options.exclude_self_edges && b_in_a) view.stamp[b] = saved;
        }
      });
}

}  // namespace

double node_similarity(const CommGraph& graph, NodeId a, NodeId b,
                       SimilarityOptions options) {
  CCG_EXPECT(a < graph.node_count() && b < graph.node_count());
  if (a == b) return 1.0;
  const CsrAdjacency csr(graph);
  StampedView view(graph.node_count());
  std::size_t deg_a = stamp_node(csr, a, view);
  if (options.exclude_self_edges && view.stamp[b] == view.version) {
    view.stamp[b] = 0;
    --deg_a;
  }
  return score_pair(csr, view, a, b, deg_a, options);
}

WeightedGraph similarity_clique(const CommGraph& graph,
                                const CsrAdjacency& csr,
                                SimilarityOptions options) {
  const std::size_t n = graph.node_count();
  CCG_EXPECT(csr.node_count() == n);
  WeightedGraph clique(n);
  if (n < 2) return clique;

  // Candidate pairs: exact all-pairs for small graphs, MinHash LSH beyond.
  std::vector<CandidatePair> candidates;
  if (n <= options.exact_pair_limit) {
    candidates.reserve(n * (n - 1) / 2);
    for (std::uint32_t a = 0; a < n; ++a) {
      for (std::uint32_t b = a + 1; b < n; ++b) {
        candidates.emplace_back(a, b);
      }
    }
  } else {
    candidates =
        lsh_candidates(csr, minhash_signatures(csr, options.use_direction));
  }

  // Exact scoring of candidates; the clique is assembled serially in
  // candidate order afterwards — byte-identical output at any thread count.
  std::vector<double> scores(candidates.size());
  score_candidates(csr, candidates, options, scores.data());

  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (scores[i] >= options.min_score) {
      clique.add_edge(candidates[i].first, candidates[i].second, scores[i]);
    }
  }
  return clique;
}

WeightedGraph similarity_clique(const CommGraph& graph, SimilarityOptions options) {
  const CsrAdjacency csr(graph);
  return similarity_clique(graph, csr, options);
}

}  // namespace ccg
