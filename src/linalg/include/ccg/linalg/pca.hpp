// PCA sparse transforms of adjacency matrices (paper §2.2).
//
// For a symmetric M with eigendecomposition M = E D Eᵀ, the k'th sparse
// transform is Mk = Ek Dk Ekᵀ using the top-k eigenpairs by |eigenvalue|.
// ReconErr(M, Mk) is the absolute sum of (M − Mk) normalized by the
// absolute sum of M. The paper's claim: on the K8s PaaS dataset (n > 500),
// k = 25 already gives ReconErr < 0.05.
#pragma once

#include <cstddef>
#include <vector>

#include "ccg/linalg/eigen.hpp"
#include "ccg/linalg/matrix.hpp"

namespace ccg {

class PcaSummary {
 public:
  /// Decomposes a symmetric matrix once; reconstructions for any k are then
  /// cheap rank-1 accumulations. Precondition: m symmetric.
  explicit PcaSummary(const Matrix& m);

  std::size_t dimension() const { return original_.rows(); }

  /// Mk = Ek Dk Ekᵀ. Precondition: k <= dimension().
  Matrix reconstruct(std::size_t k) const;

  /// ReconErr(M, Mk) = |M − Mk|₁ / |M|₁   (0 for k = n, by construction).
  double reconstruction_error(std::size_t k) const;

  /// Errors for k = 0..max_k in one incremental pass (O(n² · max_k)).
  std::vector<double> error_curve(std::size_t max_k) const;

  /// Smallest k with reconstruction_error(k) <= max_error.
  std::size_t rank_for_error(double max_error) const;

  /// Share of total |eigenvalue| mass captured by the top-k pairs — the
  /// spectral-concentration view of graph sparsity.
  double spectral_mass(std::size_t k) const;

 private:
  Matrix original_;
  EigenDecomposition eig_;
  double original_abs_sum_ = 0.0;
};

}  // namespace ccg
