// Turning the summarization model into an anomaly detector (paper §2.2):
// "a model that can capture the key patterns may also be able to identify
// when the patterns change."
//
// The detector learns the top-k eigenspace of baseline-hour adjacency
// matrices (the same subspace PCA summarization uses). Scoring a new
// window projects its matrix onto that subspace: traffic that moves the
// way the baseline did reconstructs well; new bands/blocks (scans, lateral
// movement, role changes) leave energy outside the subspace. Two auxiliary
// signals complete the score: byte volume from nodes the baseline never
// saw, and edge churn vs the previous window.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ccg/graph/comm_graph.hpp"
#include "ccg/linalg/matrix.hpp"
#include "ccg/summarize/graph_pca.hpp"

namespace ccg {

struct AnomalyScore {
  double spectral_error = 0.0;   // |M − P M P|₁ / |M|₁ in the baseline basis
  double baseline_mean = 0.0;    // same metric over the fit windows
  double baseline_std = 0.0;
  double zscore = 0.0;           // (spectral_error − mean) / std
  double new_node_byte_share = 0.0;  // bytes from nodes unknown to baseline
  double edge_jaccard_vs_prev = 1.0;  // structural churn vs previous window

  std::string to_string() const;
};

struct SpectralDetectorOptions {
  std::size_t rank = 20;  // k: what every ccgraph command fits
  double zscore_alert = 3.0;
  double new_node_share_alert = 0.02;
  AdjacencyOptions adjacency;
};

class SpectralAnomalyDetector {
 public:
  explicit SpectralAnomalyDetector(SpectralDetectorOptions options = {});

  /// Learns the baseline subspace from >= 1 windows (paper Fig. 5 uses
  /// consecutive hours). Precondition: graphs non-empty.
  void fit(const std::vector<const CommGraph*>& baseline);

  /// Scores a window. Remembers its edge set as "previous" for churn
  /// scoring.
  AnomalyScore score(const CommGraph& window);

  bool is_alert(const AnomalyScore& score) const;
  const NodeIndex& index() const { return index_; }
  bool fitted() const { return fitted_; }

 private:
  double subspace_error(const Matrix& m) const;

  SpectralDetectorOptions options_;
  NodeIndex index_;
  Matrix basis_;    // n x k top eigenvectors of the mean baseline matrix
  Matrix basis_t_;  // k x n, basis_ transposed
  double baseline_mean_ = 0.0;
  double baseline_std_ = 0.0;
  bool fitted_ = false;
  /// The last scored window's edges as sorted, distinct endpoint-key
  /// pairs (smaller key first), which stay comparable when the next
  /// window numbers its nodes differently.
  std::optional<std::vector<std::pair<NodeKey, NodeKey>>> previous_edges_;
};

}  // namespace ccg
