#include "ccg/linalg/pca.hpp"

#include <cmath>

#include "ccg/common/expect.hpp"
#include "ccg/simd/simd.hpp"

namespace ccg {

PcaSummary::PcaSummary(const Matrix& m)
    : original_(m), eig_(jacobi_eigen(m)), original_abs_sum_(m.abs_sum()) {}

Matrix PcaSummary::reconstruct(std::size_t k) const {
  const std::size_t n = dimension();
  CCG_EXPECT(k <= n);
  Matrix out(n, n);
  // One component at a time: eigenvector column j is copied into a
  // contiguous buffer once, then every row adds its rank-1 term with
  // simd::rank1_update (element-wise exact, so tier-independent).
  std::vector<double> col(n);
  for (std::size_t j = 0; j < k; ++j) {
    const double lambda = eig_.values[j];
    for (std::size_t c = 0; c < n; ++c) col[c] = eig_.vectors(c, j);
    for (std::size_t r = 0; r < n; ++r) {
      const double vr = col[r] * lambda;
      if (vr == 0.0) continue;
      simd::rank1_update(&out(r, 0), col.data(), vr, n);
    }
  }
  return out;
}

double PcaSummary::reconstruction_error(std::size_t k) const {
  if (original_abs_sum_ == 0.0) return 0.0;
  return (original_ - reconstruct(k)).abs_sum() / original_abs_sum_;
}

std::vector<double> PcaSummary::error_curve(std::size_t max_k) const {
  const std::size_t n = dimension();
  CCG_EXPECT(max_k <= n);
  std::vector<double> errors;
  errors.reserve(max_k + 1);

  // Incremental: maintain the residual M - Mk and subtract one rank-1 term
  // per step, accumulating the L1 norm in the same pass. O(n^2) per k.
  // The component column is copied contiguous once per k; each row then
  // runs one fused simd::rank1_update_abs_sum whose canonical-geometry
  // row sum depends only on n, and the row sums add up in row order, so
  // the curve is identical at any tier.
  Matrix residual = original_;
  std::vector<double> col(n);
  const auto residual_abs_l1 = [&](std::size_t component) {
    const double lambda = eig_.values[component];
    for (std::size_t c = 0; c < n; ++c) col[c] = eig_.vectors(c, component);
    double l1 = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      l1 += simd::rank1_update_abs_sum(&residual(r, 0), col.data(),
                                       col[r] * lambda, n);
    }
    return l1;
  };

  // At k = 0 the residual IS the original, so the ratio is exactly 1.
  errors.push_back(original_abs_sum_ == 0.0 ? 0.0 : 1.0);
  for (std::size_t j = 0; j < max_k; ++j) {
    const double l1 = residual_abs_l1(j);
    errors.push_back(original_abs_sum_ == 0.0 ? 0.0 : l1 / original_abs_sum_);
  }
  return errors;
}

std::size_t PcaSummary::rank_for_error(double max_error) const {
  const auto curve = error_curve(dimension());
  for (std::size_t k = 0; k < curve.size(); ++k) {
    if (curve[k] <= max_error) return k;
  }
  return dimension();
}

double PcaSummary::spectral_mass(std::size_t k) const {
  CCG_EXPECT(k <= dimension());
  double top = 0.0, total = 0.0;
  for (std::size_t j = 0; j < eig_.values.size(); ++j) {
    const double mag = std::abs(eig_.values[j]);
    total += mag;
    if (j < k) top += mag;
  }
  return total == 0.0 ? 1.0 : top / total;
}

}  // namespace ccg
