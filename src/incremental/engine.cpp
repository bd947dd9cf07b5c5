#include "ccg/incremental/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>

#include "ccg/common/expect.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/obs/span.hpp"
#include "ccg/segmentation/louvain.hpp"

namespace ccg::incremental {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Mirrors auto_segment's objective for the modularity methods — must stay
/// formula-identical for the byte-parity contract.
WeightedGraph volume_weighted(const CommGraph& graph, bool bytes) {
  WeightedGraph wg(graph.node_count());
  for (const Edge& e : graph.edges()) {
    const double w =
        bytes ? std::log1p(static_cast<double>(e.stats.bytes()))
              : static_cast<double>(e.stats.connection_minutes);
    if (w > 0.0) wg.add_edge(e.a, e.b, w);
  }
  return wg;
}

/// Bit-level equality including adjacency insertion order — exactly the
/// precondition under which louvain_cluster provably reproduces its
/// previous result (it is a deterministic function of this structure).
bool weighted_graphs_equal(const WeightedGraph& x, const WeightedGraph& y) {
  if (x.size() != y.size()) return false;
  // total_weight is a sum in insertion order; adjacency equality below
  // implies bit-equal sums, so this is just a cheap early out.
  const double tx = x.total_weight();
  const double ty = y.total_weight();
  if (std::memcmp(&tx, &ty, sizeof(double)) != 0) return false;
  for (std::uint32_t n = 0; n < x.size(); ++n) {
    if (x.neighbors(n) != y.neighbors(n)) return false;
  }
  return true;
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

IncrementalEngine::IncrementalEngine(IncrementalOptions options)
    : options_(std::move(options)) {
  CCG_EXPECT(options_.full_churn_threshold > 0.0);
  CCG_EXPECT(options_.refine_epsilon >= 0.0);
}

SimilarityOptions IncrementalEngine::similarity_options() const {
  SimilarityOptions sopts;
  sopts.kind = options_.method == SegmentationMethod::kWeightedJaccardLouvain
                   ? SimilarityKind::kWeightedJaccard
                   : SimilarityKind::kJaccard;
  sopts.min_score = options_.segmentation.min_similarity;
  sopts.exact_pair_limit = options_.exact_pair_limit;
  return sopts;
}

const WindowResult& IncrementalEngine::observe(const CommGraph& window) {
  static const CommGraph empty_base;
  return observe(window, make_patch(has_prev_ ? prev_ : empty_base, window));
}

const WindowResult& IncrementalEngine::observe(const CommGraph& window,
                                               const GraphPatch& patch) {
  CCG_OBS_SPAN("ccg.incr.window");
  auto& reg = obs::Registry::global();
  reg.counter("ccg.incr.windows").add();

  result_ = WindowResult{};
  objective_seconds_ = 0.0;
  louvain_seconds_ = 0.0;

  static const CommGraph empty_base;
  const DirtySet dirty =
      compute_dirty(has_prev_ ? prev_ : empty_base, patch, window);
  result_.churn = dirty.stats;
  result_.dirty_nodes = dirty.structural.size();
  reg.counter("ccg.incr.dirty_nodes").add(dirty.structural.size());
  reg.gauge("ccg.incr.node_churn").set(dirty.stats.node_churn());
  reg.gauge("ccg.incr.edge_churn").set(dirty.stats.edge_churn());

  bool full = false;
  if (!has_prev_) {
    full = true;
    result_.full_reason = "first";
  } else if (dirty.stats.node_churn() > options_.full_churn_threshold) {
    full = true;
    result_.full_reason = "churn";
  }

  update_csr(window, dirty, full);

  switch (options_.method) {
    case SegmentationMethod::kJaccardLouvain:
    case SegmentationMethod::kWeightedJaccardLouvain:
      run_similarity(window, dirty, full);
      break;
    case SegmentationMethod::kConnectivityModularity:
    case SegmentationMethod::kByteModularity:
      run_modularity(window, dirty);
      break;
    case SegmentationMethod::kSimRank:
    case SegmentationMethod::kSimRankPlusPlus: {
      // No incremental path for SimRank's global fixed point; the window
      // runs the stock pipeline (which is the full recompute, so verify is
      // vacuous).
      result_.full_reason = "method";
      const auto t0 = std::chrono::steady_clock::now();
      result_.segmentation =
          auto_segment(window, csr_, options_.method, options_.segmentation);
      objective_seconds_ = seconds_since(t0);
      has_louvain_ = false;
      break;
    }
  }

  result_.full_recompute = !result_.full_reason.empty();
  if (result_.full_recompute) reg.counter("ccg.incr.full_recomputes").add();

  if (options_.verify_against_full) verify(window);

  prev_ = window;
  has_prev_ = true;
  return result_;
}

void IncrementalEngine::update_csr(const CommGraph& window,
                                   const DirtySet& dirty, bool full) {
  CCG_OBS_SPAN("ccg.incr.stage.csr");
  bool patched = false;
  if (!full && dirty.identity_map) {
    patched = csr_.patch_rows(window, dirty.weighted);
  }
  if (!patched) csr_.rebuild(window);
  result_.csr_patched_in_place = patched;
  if (patched) obs::Registry::global().counter("ccg.incr.csr_patched").add();
}

void IncrementalEngine::run_similarity(const CommGraph& window,
                                       const DirtySet& dirty, bool full) {
  const auto t0 = std::chrono::steady_clock::now();
  auto& reg = obs::Registry::global();
  const SimilarityOptions sopts = similarity_options();
  const bool use_weighted_tier = sopts.kind == SimilarityKind::kWeightedJaccard;
  const std::size_t n = window.node_count();
  constexpr std::size_t kSigWidth = sim::kMinHashFunctions;

  const Scheme scheme =
      n <= sopts.exact_pair_limit ? Scheme::kExactPairs : Scheme::kLsh;
  if (!full && scheme != scheme_) {
    // Exact-all-pairs and LSH candidate lists are not comparable; the
    // carried scores and signatures restart from scratch this window.
    full = true;
    result_.full_reason = "scheme";
  }

  // Stage 1 (LSH scheme): maintain MinHash signatures. Clean rows are
  // copied through the id mapping bit-for-bit; dirty rows are re-stamped
  // from their CSR rows, which makes every row bit-identical to a fresh
  // minhash_signatures() call.
  if (scheme == Scheme::kLsh) {
    CCG_OBS_SPAN("ccg.incr.stage.signatures");
    if (full || sig_.size() != dirty.old_to_new.size() * kSigWidth) {
      sig_ = sim::minhash_signatures(csr_, sopts.use_direction);
      result_.restamped = n;
    } else {
      std::vector<std::uint64_t> next(n * kSigWidth);
      for (NodeId r = 0; r < dirty.old_to_new.size(); ++r) {
        const std::int64_t t = dirty.old_to_new[r];
        if (t < 0 || dirty.structural_flag[static_cast<std::size_t>(t)]) {
          continue;
        }
        std::memcpy(next.data() + static_cast<std::size_t>(t) * kSigWidth,
                    sig_.data() + std::size_t{r} * kSigWidth,
                    kSigWidth * sizeof(std::uint64_t));
      }
      sim::minhash_restamp(csr_, dirty.structural, sopts.use_direction, next);
      sig_ = std::move(next);
      result_.restamped = dirty.structural.size();
    }
    reg.counter("ccg.incr.restamped").add(result_.restamped);
  } else {
    sig_.clear();
  }

  const auto& flag =
      use_weighted_tier ? dirty.weighted_flag : dirty.structural_flag;
  const auto& dlist = use_weighted_tier ? dirty.weighted : dirty.structural;
  WeightedGraph clique(n);

  if (scheme == Scheme::kExactPairs) {
    // All-pairs scheme: the candidate set is implicit (every (a,b), a < b,
    // in lexicographic order), so scores live in a dense upper-triangular
    // array and carrying is index arithmetic, not a sorted-list join —
    // the O(n² log n) remap/sort the first cut of this engine did per
    // window cost more than the scoring it saved. Pair (a,b) sits at
    // tri(n, a, b); a clean row's slice is contiguous, so the identity-map
    // case (no node arrived/left — the steady state) carries whole rows
    // with memcpy and rescores only the dirty columns.
    const auto tri = [](std::size_t nn, std::size_t i, std::size_t j) {
      return (i * (2 * nn - i - 1)) / 2 + (j - i - 1);
    };
    const std::size_t pairs = n >= 2 ? (n * (n - 1)) / 2 : 0;
    const std::size_t pn = dirty.old_to_new.size();
    std::vector<double> scores(pairs);
    std::vector<sim::CandidatePair> to_score;
    std::vector<std::size_t> slots;
    {
      CCG_OBS_SPAN("ccg.incr.stage.scores");
      const bool can_carry = !full && scheme_ == Scheme::kExactPairs &&
                             pn >= 2 &&
                             scores_.size() == (pn * (pn - 1)) / 2;
      if (can_carry && dirty.identity_map) {
        std::size_t next_dirty = 0;  // first dlist entry > current row
        for (std::size_t a = 0; a + 1 < n; ++a) {
          while (next_dirty < dlist.size() &&
                 static_cast<std::size_t>(dlist[next_dirty]) <= a) {
            ++next_dirty;
          }
          const std::size_t base = tri(n, a, a + 1);
          if (!flag[a]) {
            std::memcpy(scores.data() + base, scores_.data() + base,
                        (n - a - 1) * sizeof(double));
            for (std::size_t k = next_dirty; k < dlist.size(); ++k) {
              const auto b = static_cast<std::uint32_t>(dlist[k]);
              slots.push_back(base + b - a - 1);
              to_score.emplace_back(static_cast<std::uint32_t>(a), b);
            }
          } else {
            for (std::uint32_t b = a + 1; b < n; ++b) {
              slots.push_back(base + b - a - 1);
              to_score.emplace_back(static_cast<std::uint32_t>(a), b);
            }
          }
        }
      } else if (can_carry) {
        // Nodes arrived, left or renumbered: map each target id back and
        // read the previous triangle at the remapped (unordered) pair.
        // Scores are symmetric, so orientation of the old pair is free.
        std::vector<std::int64_t> new_to_old(n, -1);
        for (std::size_t r = 0; r < pn; ++r) {
          if (dirty.old_to_new[r] >= 0) new_to_old[dirty.old_to_new[r]] = r;
        }
        std::size_t idx = 0;
        for (std::uint32_t a = 0; a < n; ++a) {
          const std::int64_t oa = flag[a] ? -1 : new_to_old[a];
          for (std::uint32_t b = a + 1; b < n; ++b, ++idx) {
            if (oa >= 0 && !flag[b]) {
              const std::int64_t ob = new_to_old[b];
              if (ob >= 0) {
                const auto lo = static_cast<std::size_t>(std::min(oa, ob));
                const auto hi = static_cast<std::size_t>(std::max(oa, ob));
                scores[idx] = scores_[tri(pn, lo, hi)];
                continue;
              }
            }
            slots.push_back(idx);
            to_score.emplace_back(a, b);
          }
        }
      } else {
        to_score.reserve(pairs);
        for (std::uint32_t a = 0; a < n; ++a) {
          for (std::uint32_t b = a + 1; b < n; ++b) to_score.emplace_back(a, b);
        }
      }
      if (slots.empty() && to_score.size() == pairs) {
        sim::score_candidates(csr_, to_score, sopts, scores.data());
      } else {
        std::vector<double> fresh(to_score.size());
        sim::score_candidates(csr_, to_score, sopts, fresh.data());
        for (std::size_t k = 0; k < slots.size(); ++k)
          scores[slots[k]] = fresh[k];
      }
    }
    result_.rescored_pairs = to_score.size();
    result_.carried_pairs = pairs - to_score.size();

    // Clique assembly in pair order — the exact construction
    // similarity_clique performs.
    std::size_t idx = 0;
    for (std::uint32_t a = 0; a < n; ++a) {
      for (std::uint32_t b = a + 1; b < n; ++b, ++idx) {
        if (scores[idx] >= sopts.min_score) clique.add_edge(a, b, scores[idx]);
      }
    }
    candidates_.clear();
    scores_ = std::move(scores);
  } else {
    // LSH banding over signatures that are already exact: the candidate
    // list matches the full recompute's exactly (bucket-size cutoffs and
    // all). Candidate lists are small (bands cut the quadratic blowup),
    // so the sorted-join carry is cheap here.
    std::vector<sim::CandidatePair> cand;
    {
      CCG_OBS_SPAN("ccg.incr.stage.candidates");
      cand = sim::lsh_candidates(csr_, sig_);
    }

    // A candidate whose endpoints are both clean for this kind's tier and
    // which was scored last window carries its score over (bit-equal: same
    // pure function of numerically identical rows); everything else is
    // scored exactly.
    std::vector<double> scores(cand.size());
    std::vector<sim::CandidatePair> to_score;
    std::vector<std::size_t> slots;
    {
      CCG_OBS_SPAN("ccg.incr.stage.scores");
      std::vector<std::pair<sim::CandidatePair, double>> carried;
      if (!full && scheme_ == Scheme::kLsh && !candidates_.empty()) {
        carried.reserve(candidates_.size());
        for (std::size_t i = 0; i < candidates_.size(); ++i) {
          const auto [a, b] = candidates_[i];
          const std::int64_t ta = dirty.old_to_new[a];
          const std::int64_t tb = dirty.old_to_new[b];
          if (ta < 0 || tb < 0) continue;
          carried.emplace_back(
              sim::CandidatePair{
                  static_cast<std::uint32_t>(std::min(ta, tb)),
                  static_cast<std::uint32_t>(std::max(ta, tb))},
              scores_[i]);
        }
        std::sort(carried.begin(), carried.end(),
                  [](const auto& x, const auto& y) { return x.first < y.first; });
      }

      for (std::size_t i = 0; i < cand.size(); ++i) {
        const auto [a, b] = cand[i];
        bool found = false;
        if (!carried.empty() && !flag[a] && !flag[b]) {
          const auto it = std::lower_bound(
              carried.begin(), carried.end(), cand[i],
              [](const auto& x, const sim::CandidatePair& p) {
                return x.first < p;
              });
          if (it != carried.end() && it->first == cand[i]) {
            scores[i] = it->second;
            found = true;
          }
        }
        if (!found) {
          slots.push_back(i);
          to_score.push_back(cand[i]);
        }
      }
      std::vector<double> fresh(to_score.size());
      sim::score_candidates(csr_, to_score, sopts, fresh.data());
      for (std::size_t k = 0; k < slots.size(); ++k) scores[slots[k]] = fresh[k];
    }
    result_.rescored_pairs = to_score.size();
    result_.carried_pairs = cand.size() - to_score.size();

    for (std::size_t i = 0; i < cand.size(); ++i) {
      if (scores[i] >= sopts.min_score) {
        clique.add_edge(cand[i].first, cand[i].second, scores[i]);
      }
    }
    candidates_ = std::move(cand);
    scores_ = std::move(scores);
  }
  reg.counter("ccg.incr.rescored_pairs").add(result_.rescored_pairs);
  reg.counter("ccg.incr.carried_pairs").add(result_.carried_pairs);
  scheme_ = scheme;
  objective_seconds_ = seconds_since(t0);

  run_louvain(std::move(clique), dirty, full, n);
}

void IncrementalEngine::run_modularity(const CommGraph& window,
                                       const DirtySet& dirty) {
  const auto t0 = std::chrono::steady_clock::now();
  WeightedGraph objective =
      volume_weighted(window,
                      options_.method == SegmentationMethod::kByteModularity);
  objective_seconds_ = seconds_since(t0);
  scheme_ = Scheme::kNone;
  run_louvain(std::move(objective), dirty, /*full=*/!has_louvain_,
              window.node_count());
}

void IncrementalEngine::run_louvain(WeightedGraph objective,
                                    const DirtySet& dirty, bool full,
                                    std::size_t node_count) {
  const auto t0 = std::chrono::steady_clock::now();
  auto& reg = obs::Registry::global();
  const LouvainOptions lopts{
      .resolution = options_.segmentation.louvain_resolution,
      .seed = options_.segmentation.seed};

  LouvainResult lr;
  const bool can_seed =
      !full && has_louvain_ &&
      louvain_.labels.size() == dirty.old_to_new.size();
  if (can_seed && dirty.identity_map &&
      weighted_graphs_equal(objective, objective_)) {
    // Identical input + deterministic algorithm: the previous result IS
    // this window's cold result, carried without running it.
    lr = louvain_;
    result_.labels_reused = true;
    reg.counter("ccg.incr.labels_reused").add();
  } else if (options_.refine && can_seed) {
    // Warm start: previous communities mapped through the id change; new
    // nodes begin as fresh singletons.
    std::uint32_t fresh = 0;
    for (const std::uint32_t label : louvain_.labels) {
      fresh = std::max(fresh, label + 1);
    }
    std::vector<std::uint32_t> seeds(node_count, 0);
    std::vector<std::uint8_t> seeded(node_count, 0);
    for (NodeId r = 0; r < dirty.old_to_new.size(); ++r) {
      const std::int64_t t = dirty.old_to_new[r];
      if (t < 0) continue;
      seeds[static_cast<std::size_t>(t)] = louvain_.labels[r];
      seeded[static_cast<std::size_t>(t)] = 1;
    }
    for (std::size_t t = 0; t < node_count; ++t) {
      if (!seeded[t]) seeds[t] = fresh++;
    }
    lr = louvain_refine(objective, seeds, lopts);
  } else {
    lr = louvain_cluster(objective, lopts);
  }
  louvain_seconds_ = seconds_since(t0);

  result_.segmentation.method = options_.method;
  result_.segmentation.labels = lr.labels;
  result_.segmentation.segment_count = lr.community_count;
  result_.segmentation.objective_modularity = lr.modularity;
  louvain_ = std::move(lr);
  objective_ = std::move(objective);
  has_louvain_ = true;
}

void IncrementalEngine::verify(const CommGraph& window) {
  CCG_OBS_SPAN("ccg.incr.stage.verify");
  auto& reg = obs::Registry::global();
  result_.verified = false;
  result_.verify_error.clear();

  if (options_.method == SegmentationMethod::kSimRank ||
      options_.method == SegmentationMethod::kSimRankPlusPlus) {
    result_.verified = true;  // the incremental path IS the full compute
    return;
  }

  const LouvainOptions lopts{
      .resolution = options_.segmentation.louvain_resolution,
      .seed = options_.segmentation.seed};
  double full_objective_s = 0.0;
  double full_louvain_s = 0.0;

  auto t0 = std::chrono::steady_clock::now();
  WeightedGraph full_objective(0);
  switch (options_.method) {
    case SegmentationMethod::kJaccardLouvain:
    case SegmentationMethod::kWeightedJaccardLouvain:
      full_objective = similarity_clique(window, csr_, similarity_options());
      break;
    default:
      full_objective = volume_weighted(
          window, options_.method == SegmentationMethod::kByteModularity);
      break;
  }
  full_objective_s = seconds_since(t0);

  if (!weighted_graphs_equal(full_objective, objective_)) {
    result_.verify_error = "objective graph differs from full recompute";
  }

  t0 = std::chrono::steady_clock::now();
  const LouvainResult full_lr = louvain_cluster(full_objective, lopts);
  full_louvain_s = seconds_since(t0);

  if (result_.verify_error.empty()) {
    if (options_.refine) {
      if (std::abs(result_.segmentation.objective_modularity -
                   full_lr.modularity) > options_.refine_epsilon) {
        result_.verify_error = "refine modularity diverged beyond epsilon";
      }
    } else if (result_.segmentation.labels != full_lr.labels) {
      result_.verify_error = "labels differ from full recompute";
    } else if (result_.segmentation.segment_count != full_lr.community_count) {
      result_.verify_error = "segment count differs from full recompute";
    } else if (!bits_equal(result_.segmentation.objective_modularity,
                           full_lr.modularity)) {
      result_.verify_error = "modularity bits differ from full recompute";
    }
  }

  if (result_.verify_error.empty() && scheme_ == Scheme::kLsh) {
    const auto fresh =
        sim::minhash_signatures(csr_, similarity_options().use_direction);
    if (fresh != sig_) {
      result_.verify_error = "carried MinHash signatures differ";
    }
  }

  result_.verified = result_.verify_error.empty();
  reg.gauge("ccg.incr.saved.objective_s")
      .add(full_objective_s - objective_seconds_);
  reg.gauge("ccg.incr.saved.louvain_s").add(full_louvain_s - louvain_seconds_);
}

}  // namespace ccg::incremental
