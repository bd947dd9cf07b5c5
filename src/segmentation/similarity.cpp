#include "ccg/segmentation/similarity.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
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

/// Rows per chunk of the Jaccard clique: ~24 chunks on a 381-node k8s
/// window, enough to balance the longer rows of the low ids.
constexpr std::size_t kRowGrain = 16;

using CandidatePair = std::pair<std::uint32_t, std::uint32_t>;

/// x's direction tag for b as b sees x: CommGraph::edge_role swaps
/// initiator and responder exactly between an edge's two ends.
constexpr std::int32_t mirrored(std::int32_t tag) {
  static_assert(CsrAdjacency::kTagInitiator == 0 &&
                CsrAdjacency::kTagResponder == 1);
  return tag == CsrAdjacency::kTagMixed ? tag : 1 - tag;
}

/// One worker's dense accumulators for typed-Jaccard rows. count(a) adds
/// one to common[b] for each wedge a – x – b with b > a where b relates to
/// x as a does (same direction tag and, since the port hint belongs to the
/// edge, same port; any shared x without use_direction). That is row a of
/// the typed adjacency times its transpose, so common[b] is the size of
/// the typed intersection N(a) ∩ N(b). CommGraph has no self-loops, so
/// neither end is ever its own middle: excluding self edges changes only
/// the degree terms.
struct RowCounts {
  std::vector<std::uint32_t> common;  // zero outside count() .. clear()
  std::vector<std::uint32_t> mark;    // mark[x] == a + 1  <=>  x ∈ N(a)

  explicit RowCounts(std::size_t n) : common(n, 0), mark(n, 0) {}

  void count(const CsrAdjacency& csr, std::uint32_t a, bool use_direction) {
    const auto ids_a = csr.ids(a);
    const auto tags_a = csr.tags(a);
    const auto ports_a = csr.ports(a);
    for (std::size_t k = 0; k < ids_a.size(); ++k) {
      const std::uint32_t x = ids_a[k];
      mark[x] = a + 1;
      // x's row is sorted, so its entries past a form a suffix.
      const auto ids_x = csr.ids(x);
      const std::size_t first = static_cast<std::size_t>(
          std::upper_bound(ids_x.begin(), ids_x.end(), a) - ids_x.begin());
      if (!use_direction) {
        for (std::size_t j = first; j < ids_x.size(); ++j) ++common[ids_x[j]];
        continue;
      }
      const std::int32_t tag = mirrored(tags_a[k]);
      const std::int32_t port = ports_a[k];
      const auto tags_x = csr.tags(x);
      const auto ports_x = csr.ports(x);
      for (std::size_t j = first; j < ids_x.size(); ++j) {
        common[ids_x[j]] += (tags_x[j] == tag) & (ports_x[j] == port);
      }
    }
  }

  /// Zeroes every counter count(a) could have raised.
  void clear(const CsrAdjacency& csr, std::uint32_t a) {
    for (const std::uint32_t x : csr.ids(a)) {
      const auto ids_x = csr.ids(x);
      for (auto it = std::upper_bound(ids_x.begin(), ids_x.end(), a);
           it != ids_x.end(); ++it) {
        common[*it] = 0;
      }
    }
  }

  /// Jaccard of a < b after count(a): common[b] over the union of the two
  /// neighbour sets, each less the other end when self edges are excluded.
  double score(const CsrAdjacency& csr, std::uint32_t a, std::uint32_t b,
               bool exclude_self_edges) const {
    const std::uint32_t inter = common[b];
    const std::size_t direct = exclude_self_edges && mark[b] == a + 1 ? 1 : 0;
    const std::size_t uni =
        (csr.degree(a) - direct) + (csr.degree(b) - direct) - inter;
    return uni == 0 ? 0.0
                    : static_cast<double>(inter) / static_cast<double>(uni);
  }
};

/// State for scoring pairs (a, *) of the weighted kinds: a's neighborhood
/// stamped into arrays (stamp is a gatherable 32-bit lane, weight a
/// gatherable double lane).
struct StampedView {
  std::vector<std::uint32_t> stamp;  // stamp[x] == version  <=>  x ∈ N(a)
  std::vector<double> weight;        // a's log-byte weight for x
  std::uint32_t version = 0;

  explicit StampedView(std::size_t n) : stamp(n, 0), weight(n, 0.0) {}
};

/// Stamps node a's CSR row into the view.
void stamp_node(const CsrAdjacency& csr, std::uint32_t a, StampedView& view) {
  ++view.version;
  const auto ids = csr.ids(a);
  const auto weights = csr.weights(a);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    view.stamp[ids[k]] = view.version;
    view.weight[ids[k]] = weights[k];
  }
}

/// Weighted-Jaccard or cosine score of (a, b) against a's stamped view.
/// With no self-loops b never lies in its own row, so a direct a~b edge
/// leaves the overlap only through the two exclude_self_edges filters.
double score_pair(const CsrAdjacency& csr, const StampedView& view,
                  std::uint32_t a, std::uint32_t b,
                  const SimilarityOptions& options) {
  const auto ids_b = csr.ids(b);
  const std::size_t nb = ids_b.size();
  if (options.kind == SimilarityKind::kWeightedJaccard) {
    // Ruzicka: Σ min(wa, wb) / Σ max(wa, wb) over the neighbor union,
    // where missing neighbors have weight 0.
    const simd::WeightedOverlap wo = simd::weighted_overlap(
        ids_b.data(), csr.weights(b).data(), nb, view.stamp.data(),
        view.weight.data(), view.version,
        options.exclude_self_edges ? a : simd::kNoExclude);
    const double a_total = simd::masked_sum(
        csr.ids(a).data(), csr.weights(a).data(), csr.degree(a),
        options.exclude_self_edges ? b : simd::kNoExclude);
    const double sum_max = wo.sum_max_matched + (a_total - wo.matched_a) +
                           (wo.b_total - wo.matched_b);
    return sum_max <= 0.0 ? 0.0 : wo.sum_min / sum_max;
  }
  // Cosine, scalar on purpose: the dot needs a stamp-gated gather (stale
  // view.weight entries must not contribute), which no simd primitive
  // models.
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

/// Stamps one signature row from v's CSR row, one simd::minhash_update
/// per feature (min over exact u64 hashes).
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

/// Weighted kinds. Chunks partition the (a-major sorted) candidate list;
/// each worker keeps one reusable StampedView and re-stamps whenever the
/// first endpoint changes inside its chunk, so the stamp arrays are
/// rebuilt at most once per (node, chunk). Scores land in per-candidate
/// slots, so the result is byte-identical at any thread count.
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
        for (std::size_t i = begin; i < end; ++i) {
          const auto [a, b] = candidates[i];
          if (a != current_a) {
            current_a = a;
            stamp_node(csr, a, view);
          }
          scores[i] = score_pair(csr, view, a, b, options);
        }
      });
}

/// The Jaccard clique by rows: chunks of kRowGrain rows, each worker with
/// one RowCounts. Row a is counted once, then scored for every b > a with
/// a nonzero count (zeroing it), or, on the LSH path, for a's candidates
/// (clearing the row after). A zero count scores 0, which add_edge drops,
/// so skipping it is exact. Each chunk lists its pairs a-major, b
/// ascending, and the lists are added in chunk order: the candidate
/// order, hence the same clique bits at any thread count.
void add_jaccard_pairs(const CsrAdjacency& csr,
                       std::span<const CandidatePair> candidates, bool exact,
                       const SimilarityOptions& options, WeightedGraph& clique) {
  struct ScoredPair {
    std::uint32_t a, b;
    double score;
  };
  const std::size_t n = csr.node_count();
  // LSH path: first[a] .. first[a + 1] is row a's slice of the candidates.
  std::vector<std::size_t> first;
  if (!exact) {
    first.assign(n + 1, 0);
    for (const auto& [a, b] : candidates) ++first[a + 1];
    std::partial_sum(first.begin(), first.end(), first.begin());
  }

  std::vector<std::vector<ScoredPair>> chunk_pairs(
      parallel::chunk_layout(n, kRowGrain).count);
  std::vector<std::unique_ptr<RowCounts>> rows(parallel::max_workers());
  parallel::parallel_for_worker(
      n, kRowGrain, [&](std::size_t begin, std::size_t end, std::size_t worker) {
        if (!rows[worker]) rows[worker] = std::make_unique<RowCounts>(n);
        RowCounts& row = *rows[worker];
        std::vector<ScoredPair>& out = chunk_pairs[begin / kRowGrain];
        const auto emit = [&](std::uint32_t a, std::uint32_t b) {
          const double score = row.score(csr, a, b, options.exclude_self_edges);
          if (score >= options.min_score) out.push_back({a, b, score});
        };
        for (auto a = static_cast<std::uint32_t>(begin); a < end; ++a) {
          if (exact) {
            row.count(csr, a, options.use_direction);
            for (auto b = a + 1; b < n; ++b) {
              if (row.common[b] == 0) continue;
              emit(a, b);
              row.common[b] = 0;
            }
          } else if (first[a] < first[a + 1]) {
            row.count(csr, a, options.use_direction);
            for (std::size_t i = first[a]; i < first[a + 1]; ++i) {
              emit(a, candidates[i].second);
            }
            row.clear(csr, a);
          }
        }
      });
  // Sizing each neighbour list first spares add_edge its regrowth.
  std::vector<std::uint32_t> degree(n, 0);
  for (const auto& pairs : chunk_pairs) {
    for (const ScoredPair& p : pairs) {
      ++degree[p.a];
      ++degree[p.b];
    }
  }
  for (std::uint32_t v = 0; v < n; ++v) clique.reserve(v, degree[v]);
  for (const auto& pairs : chunk_pairs) {
    for (const ScoredPair& p : pairs) clique.add_edge(p.a, p.b, p.score);
  }
}

}  // namespace

double node_similarity(const CommGraph& graph, NodeId a, NodeId b,
                       SimilarityOptions options) {
  CCG_EXPECT(a < graph.node_count() && b < graph.node_count());
  if (a == b) return 1.0;
  const CsrAdjacency csr(graph);
  if (options.kind == SimilarityKind::kJaccard) {
    // Jaccard is symmetric: count the lower row, read the higher end.
    const auto [lo, hi] = std::minmax(a, b);
    RowCounts row(graph.node_count());
    row.count(csr, lo, options.use_direction);
    return row.score(csr, lo, hi, options.exclude_self_edges);
  }
  StampedView view(graph.node_count());
  stamp_node(csr, a, view);
  return score_pair(csr, view, a, b, options);
}

WeightedGraph similarity_clique(const CommGraph& graph,
                                const CsrAdjacency& csr,
                                SimilarityOptions options) {
  const std::size_t n = graph.node_count();
  CCG_EXPECT(csr.node_count() == n);
  WeightedGraph clique(n);
  if (n < 2) return clique;

  // Candidate pairs: every pair for small graphs, MinHash LSH beyond.
  const bool exact = n <= options.exact_pair_limit;
  std::vector<CandidatePair> candidates;
  if (!exact) {
    candidates =
        lsh_candidates(csr, minhash_signatures(csr, options.use_direction));
  }
  if (options.kind == SimilarityKind::kJaccard) {
    add_jaccard_pairs(csr, candidates, exact, options, clique);
    return clique;
  }
  if (exact) {
    candidates.reserve(n * (n - 1) / 2);
    for (std::uint32_t a = 0; a < n; ++a) {
      for (std::uint32_t b = a + 1; b < n; ++b) {
        candidates.emplace_back(a, b);
      }
    }
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
