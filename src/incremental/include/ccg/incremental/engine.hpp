// The incremental analytics engine: patch-driven window-to-window updates
// instead of per-window recompute.
//
// Consecutive windows of a cloud deployment overlap heavily (paper Fig. 5:
// "many patterns are consistent" hour over hour), yet the seeded pipeline
// re-derived every window's segmentation from scratch. This engine consumes
// the exact GraphPatch between windows and re-does only the work the patch
// invalidates, under two explicit contracts:
//
//   exact (default)  — the emitted Segmentation is byte-identical to
//                      auto_segment() on the same window: carried MinHash
//                      rows and pair scores are bit-equal to freshly
//                      computed ones (see dirty.hpp), the scored clique is
//                      assembled identically, and Louvain either reuses the
//                      previous labels (only when the clique is bit-equal,
//                      where equality is provable by determinism) or runs
//                      cold. CI diffs `ccgraph anomaly --incremental`
//                      against the plain run byte for byte.
//   refine (opt-in)  — Louvain warm-starts from the previous labels
//                      (louvain_refine); a different local optimum, with
//                      modularity divergence bounded by refine_epsilon
//                      under verify_against_full.
//
// Every path can verify itself against a scratch full recompute each
// window (verify_against_full), and every fallback to full work is counted
// and carries a reason.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ccg/graph/comm_graph.hpp"
#include "ccg/graph/csr.hpp"
#include "ccg/graph/delta.hpp"
#include "ccg/incremental/dirty.hpp"
#include "ccg/segmentation/auto_segment.hpp"
#include "ccg/segmentation/similarity.hpp"

namespace ccg::incremental {

struct IncrementalOptions {
  SegmentationMethod method = SegmentationMethod::kJaccardLouvain;
  SegmentationOptions segmentation;
  /// Warm-start Louvain from the previous labels instead of the exact
  /// cold run. Bounded divergence, not byte-identity.
  bool refine = false;
  /// refine mode: |Q_incremental − Q_full| bound checked by verify.
  double refine_epsilon = 0.05;
  /// Recompute everything from scratch each window and check the
  /// incremental result against it (exact: bit-equality; refine: bounded
  /// divergence). The whole point of incrementality is to skip this work,
  /// so it is a test/CI knob, not a production default.
  bool verify_against_full = false;
  /// Above this node-churn fraction the bookkeeping costs more than it
  /// saves; the window runs with everything marked dirty (reason "churn").
  double full_churn_threshold = 0.6;
  /// Mirror of SimilarityOptions::exact_pair_limit — tests lower it to
  /// force the LSH path on small graphs. Byte-parity with auto_segment
  /// holds only at the default value.
  std::size_t exact_pair_limit = 2500;
};

struct WindowResult {
  Segmentation segmentation;
  ChurnStats churn;
  /// The window ran with everything dirty. Reasons: "first" (no previous
  /// state), "churn" (over full_churn_threshold), "scheme" (the candidate
  /// generator switched between exact all-pairs and LSH), "method" (the
  /// method has no incremental path, e.g. SimRank).
  bool full_recompute = false;
  std::string full_reason;
  std::size_t dirty_nodes = 0;     // structural tier
  std::size_t restamped = 0;       // MinHash rows re-stamped (LSH scheme)
  std::size_t rescored_pairs = 0;  // candidates scored this window
  std::size_t carried_pairs = 0;   // candidates with carried scores
  bool labels_reused = false;      // objective bit-equal -> labels carried
  bool csr_patched_in_place = false;
  /// verify_against_full: ran and passed. On mismatch `verify_error`
  /// says what diverged (empty otherwise).
  bool verified = false;
  std::string verify_error;
};

/// One engine instance tracks one window stream for one method. Feed it
/// every window in order; it computes (or is handed) the exact patch from
/// the previous window and maintains CSR, MinHash signatures, candidate
/// scores and Louvain labels across calls.
class IncrementalEngine {
 public:
  explicit IncrementalEngine(IncrementalOptions options = {});

  /// Computes the patch from the previously observed window itself.
  const WindowResult& observe(const CommGraph& window);

  /// Caller-supplied patch (e.g. straight from StoreReader::patches()).
  /// Precondition: apply_patch(previous window, patch) == window; the
  /// first call must carry a keyframe patch (every node/edge new).
  const WindowResult& observe(const CommGraph& window, const GraphPatch& patch);

  const WindowResult& last() const { return result_; }
  const CsrAdjacency& csr() const { return csr_; }
  const IncrementalOptions& options() const { return options_; }

 private:
  enum class Scheme { kNone, kExactPairs, kLsh };

  SimilarityOptions similarity_options() const;
  void update_csr(const CommGraph& window, const DirtySet& dirty, bool full);
  void run_similarity(const CommGraph& window, const DirtySet& dirty,
                      bool full);
  void run_modularity(const CommGraph& window, const DirtySet& dirty);
  void run_louvain(WeightedGraph objective, const DirtySet& dirty, bool full,
                   std::size_t node_count);
  void verify(const CommGraph& window);

  IncrementalOptions options_;
  CommGraph prev_;
  bool has_prev_ = false;
  CsrAdjacency csr_;
  Scheme scheme_ = Scheme::kNone;
  std::vector<std::uint64_t> sig_;  // n x sim::kMinHashFunctions (LSH only)
  /// Previous window's scored pairs. Exact scheme: candidates_ is empty
  /// and scores_ is the dense upper triangle (pair (a,b), a<b, at
  /// a*(2n-a-1)/2 + b-a-1). LSH scheme: scores_ is parallel to
  /// candidates_.
  std::vector<sim::CandidatePair> candidates_;
  std::vector<double> scores_;
  WeightedGraph objective_{0};  // previous window's Louvain input
  LouvainResult louvain_;       // previous window's communities
  bool has_louvain_ = false;
  WindowResult result_;
  double objective_seconds_ = 0.0;  // this window, for saved-time gauges
  double louvain_seconds_ = 0.0;
};

}  // namespace ccg::incremental
