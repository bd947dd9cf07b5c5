#include "ccg/summarize/anomaly.hpp"

#include <algorithm>
#include <cmath>

#include "ccg/common/expect.hpp"
#include "ccg/linalg/eigen.hpp"
#include "ccg/simd/simd.hpp"

namespace ccg {

namespace {

using EdgeKey = std::pair<NodeKey, NodeKey>;

std::vector<EdgeKey> sorted_edge_keys(const CommGraph& g) {
  std::vector<EdgeKey> keys;
  keys.reserve(g.edge_count());
  for (const Edge& e : g.edges()) {
    NodeKey a = g.key(e.a);
    NodeKey b = g.key(e.b);
    if (b < a) std::swap(a, b);
    keys.emplace_back(a, b);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

/// |a ∩ b| / |a ∪ b| of two sorted, distinct key sets; 1 when both are
/// empty. The same counts, hence the same double, as diff_graphs'
/// edge_jaccard.
double sorted_jaccard(const std::vector<EdgeKey>& a, const std::vector<EdgeKey>& b) {
  std::size_t common = 0;
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (*i < *j) {
      ++i;
    } else if (*j < *i) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  const std::size_t uni = a.size() + b.size() - common;
  return uni == 0 ? 1.0 : static_cast<double>(common) / static_cast<double>(uni);
}

}  // namespace

SpectralAnomalyDetector::SpectralAnomalyDetector(SpectralDetectorOptions options)
    : options_(options) {
  CCG_EXPECT(options.rank >= 1);
}

void SpectralAnomalyDetector::fit(const std::vector<const CommGraph*>& baseline) {
  CCG_EXPECT(!baseline.empty());
  index_ = NodeIndex::from_graphs(baseline);
  const std::size_t n = index_.size();
  const std::size_t k = std::min(options_.rank, n);

  // Mean baseline matrix -> top-k eigenbasis.
  Matrix mean(n, n);
  for (const CommGraph* g : baseline) {
    const Matrix m = adjacency_matrix(*g, index_, options_.adjacency);
    mean = mean + m;
  }
  mean = mean.scaled(1.0 / static_cast<double>(baseline.size()));
  const EigenDecomposition eig = jacobi_eigen(mean);

  basis_ = Matrix(n, k);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < n; ++i) basis_(i, j) = eig.vectors(i, j);
  }
  basis_t_ = basis_.transpose();
  fitted_ = true;

  // Baseline self-scores give the alert threshold scale.
  double sum = 0.0, sum2 = 0.0;
  for (const CommGraph* g : baseline) {
    const double e = subspace_error(adjacency_matrix(*g, index_, options_.adjacency));
    sum += e;
    sum2 += e * e;
  }
  const double count = static_cast<double>(baseline.size());
  baseline_mean_ = sum / count;
  const double var = std::max(0.0, sum2 / count - baseline_mean_ * baseline_mean_);
  // Floor the deviation, relatively AND absolutely: with very few fit
  // windows (or near-identical ones) the empirical variance is ~0, and the
  // reconstruction error itself is only meaningful to a couple of percent —
  // sub-percent wiggles between quiet hours must not become 20-sigma events.
  baseline_std_ = std::max({std::sqrt(var), 0.05 * baseline_mean_, 0.01});
  previous_edges_.reset();
}

double SpectralAnomalyDetector::subspace_error(const Matrix& m) const {
  // |M − M̂|₁ / |M|₁ with M̂ = B (Bᵀ M B) Bᵀ, the closest matrix to M whose
  // row/column spaces lie in the baseline subspace. Only M is n x n. Every
  // element below sums its terms in the order of the dense chain
  // Bᵀ.multiply(M).multiply(B), B.multiply(S).multiply(Bᵀ), (M − M̂).abs_sum(),
  // whose ikj loops skip zero left factors; so the result is the same bits.
  // Terms that differ between the two are products with a zero factor,
  // i.e. exact ±0, added to sums that start at +0 and so are never −0:
  // each is a no-op. Nothing here fuses a multiply-add or splits a sum
  // into lanes.
  const std::size_t n = basis_.rows();
  const std::size_t k = basis_.cols();
  const double* mdata = m.data().data();
  const double* b = basis_.data().data();

  // (Bᵀ M)ᵀ, n x k, from M's nonzeros in row-major order: row c gathers
  // M(r, c)·B(r, ·) over rows r ascending. The same scan sums |M|.
  std::vector<double> tt(n * k, 0.0);
  double denom = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    const double* mrow = mdata + r * n;
    for (std::size_t c = 0; c < n; ++c) {
      if (mrow[c] == 0.0) continue;
      denom += std::abs(mrow[c]);
      simd::rank1_update(&tt[c * k], b + r * k, mrow[c], k);
    }
  }
  if (denom == 0.0) return 0.0;

  // S = (Bᵀ M) B (k x k), then B S (n x k).
  const Matrix t = Matrix(n, k, std::move(tt)).transpose();
  std::vector<double> s(k * k);
  std::vector<double> bs(n * k);
  simd::combine_rows(s.data(), k, t.data().data(), n, b, k, k, n, k);
  simd::combine_rows(bs.data(), k, b, k, s.data(), k, n, k, k);

  // M̂ = (B S) Bᵀ four rows at a time (the AVX2 tile height); each
  // residual entry joins the L1 sum in row-major order.
  constexpr std::size_t kRows = 4;
  const double* bt = basis_t_.data().data();
  std::vector<double> recon(kRows * n);
  double residual = 0.0;
  for (std::size_t r0 = 0; r0 < n; r0 += kRows) {
    const std::size_t rows = std::min(kRows, n - r0);
    simd::combine_rows(recon.data(), n, bs.data() + r0 * k, k, bt, n, rows, k, n);
    const double* mrows = mdata + r0 * n;
    for (std::size_t i = 0; i < rows * n; ++i) {
      residual += std::abs(mrows[i] - recon[i]);
    }
  }
  return residual / denom;
}

AnomalyScore SpectralAnomalyDetector::score(const CommGraph& window) {
  CCG_EXPECT(fitted_);
  AnomalyScore out;

  std::uint64_t unindexed = 0;
  const Matrix m = adjacency_matrix(window, index_, options_.adjacency, &unindexed);
  out.spectral_error = subspace_error(m);
  out.baseline_mean = baseline_mean_;
  out.baseline_std = baseline_std_;
  out.zscore = (out.spectral_error - baseline_mean_) / baseline_std_;

  const std::uint64_t total = window.total_bytes();
  out.new_node_byte_share =
      total == 0 ? 0.0 : static_cast<double>(unindexed) / static_cast<double>(total);

  std::vector<EdgeKey> edges = sorted_edge_keys(window);
  if (previous_edges_.has_value()) {
    out.edge_jaccard_vs_prev = sorted_jaccard(*previous_edges_, edges);
  }
  previous_edges_ = std::move(edges);
  return out;
}

bool SpectralAnomalyDetector::is_alert(const AnomalyScore& score) const {
  return score.zscore >= options_.zscore_alert ||
         score.new_node_byte_share >= options_.new_node_share_alert;
}

std::string AnomalyScore::to_string() const {
  char buf[220];
  std::snprintf(buf, sizeof(buf),
                "spectral=%.4f (baseline %.4f±%.4f, z=%.2f) new-node-bytes=%.2f%% "
                "edge-jaccard-prev=%.3f",
                spectral_error, baseline_mean, baseline_std, zscore,
                100.0 * new_node_byte_share, edge_jaccard_vs_prev);
  return buf;
}

}  // namespace ccg
