// Pairwise node-similarity scoring over communication graphs.
//
// The paper's auto-segmentation (Fig. 1, footnote 5) scores each pair of
// nodes by the Jaccard overlap of their neighbor sets, then clusters the
// scored clique with Louvain. The key insight: two front-end VMs never talk
// to *each other*, but they talk to the *same* backends — neighbor-set
// similarity finds roles where modularity (which groups heavy
// communicators) cannot.
#pragma once

#include <cstdint>
#include <vector>

#include "ccg/graph/comm_graph.hpp"
#include "ccg/graph/csr.hpp"
#include "ccg/segmentation/louvain.hpp"

namespace ccg {

enum class SimilarityKind {
  /// |N(a) ∩ N(b)| / |N(a) ∪ N(b)| over unweighted neighbor sets — the
  /// paper's choice.
  kJaccard,
  /// Weighted (Ruzicka) overlap: Σ min(w_a(x), w_b(x)) / Σ max(...), with
  /// w_n(x) the byte volume on edge (n, x). Ablation: does conversation
  /// volume help role inference?
  kWeightedJaccard,
  /// Cosine similarity of byte-weighted neighbor vectors.
  kCosine,
};

struct SimilarityOptions {
  SimilarityKind kind = SimilarityKind::kJaccard;
  /// Pairs scoring below this are dropped from the scored clique (scores
  /// below ~0.05 are noise). The floor does not make the Louvain input
  /// sparse: a 3-min k8s window keeps ~35.7k of its ~72.4k pairs (49%).
  double min_score = 0.02;
  /// When scoring a's and b's neighbor sets, exclude a and b themselves
  /// (direct conversation should not make two nodes 'similar').
  bool exclude_self_edges = true;
  /// Type neighbor-set elements by conversation direction: a neighbor only
  /// matches when both nodes relate to it the same way (both initiate to
  /// it, both are initiated-to, or both mixed). Separates "clients of X"
  /// from "servers X calls", which plain set overlap confuses. Applies to
  /// kJaccard; the weighted kinds use volume profiles instead.
  bool use_direction = true;
  /// Above this node count, exact scoring of every pair is replaced by
  /// MinHash sketching with LSH banding (cf. the paper's citation of
  /// SuperMinHash for Jaccard estimation). Candidates are still scored
  /// exactly either way; LSH only prunes the pair list. The exact Jaccard
  /// path costs Σₓ C(deg x, 2) wedges (two-hop paths a – x – b), not a
  /// scan of all n(n−1)/2 pairs: a 381-node k8s window has ~90k wedges
  /// against ~72k pairs of ~10 row entries each. Exposed so tests can
  /// force both paths on the same graph.
  std::size_t exact_pair_limit = 2500;
};

/// Computes the scored clique: a WeightedGraph over the same NodeIds where
/// edge weights are pairwise similarities of at least `min_score`. The
/// paper calls out the super-quadratic cost of this step as an open issue.
/// Up to `exact_pair_limit` nodes the Jaccard kind counts each row's
/// common neighbours through its wedges, Σₓ C(deg x, 2) steps in all, and
/// scores only the pairs that share a neighbour (the rest score 0); the
/// weighted kinds score every one of the n(n−1)/2 pairs. Above the limit,
/// MinHash/LSH banding proposes the candidate pairs and only those are
/// scored, exactly. Either way the work is split across parallel_for
/// threads, with the same bits at any thread count.
WeightedGraph similarity_clique(const CommGraph& graph, SimilarityOptions options = {});

/// Same, over a prebuilt CSR flattening of `graph` — the window's CSR is
/// built once and shared by every kernel that reads the window.
WeightedGraph similarity_clique(const CommGraph& graph, const CsrAdjacency& csr,
                                SimilarityOptions options = {});

/// Pairwise similarity of two specific nodes (exact, for tests/inspection).
double node_similarity(const CommGraph& graph, NodeId a, NodeId b,
                       SimilarityOptions options = {});

}  // namespace ccg
