#include "ccg/linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ccg/common/expect.hpp"
#include "ccg/simd/simd.hpp"

namespace ccg {

namespace {

/// Convergence: every off-diagonal magnitude at most this share of the
/// Frobenius norm, or kMaxSweeps full sweeps.
constexpr double kTolerance = 1e-10;
constexpr int kMaxSweeps = 64;

/// Applies the (p, q) rotation, p < q, to rows p/q of `a` (contiguous —
/// vectorized with simd::rotate_pair, which is element-wise exact), to
/// columns p/q of `a` (strided — scalar), and to rows p/q of `vt` (the
/// eigenvector matrix stored TRANSPOSED precisely so its rotation touches
/// two contiguous rows instead of two strided columns). Entries with
/// k ∈ {p, q} are left to the 2x2 block fix-up that follows.
void apply_rotation_offblock(Matrix& a, Matrix& vt, std::size_t p,
                             std::size_t q, double c, double s) {
  const std::size_t n = a.rows();
  simd::rotate_pair(&vt(p, 0), &vt(q, 0), c, s, n);

  // Row segments of `a` on either side of p and q. rotate_pair is
  // element-wise, so splitting at p/q changes nothing.
  std::size_t seg = 0;
  for (const std::size_t stop : {p, q, n}) {
    if (seg < stop) simd::rotate_pair(&a(p, seg), &a(q, seg), c, s, stop - seg);
    seg = stop + 1;
  }

  // Column updates stay scalar: stride-n access defeats vector loads, and
  // the element arithmetic is identical either way.
  for (std::size_t k = 0; k < n; ++k) {
    if (k == p || k == q) continue;
    const double akp = a(k, p);
    const double akq = a(k, q);
    a(k, p) = c * akp - s * akq;
    a(k, q) = s * akp + c * akq;
  }
}

}  // namespace

EigenDecomposition jacobi_eigen(const Matrix& input) {
  CCG_EXPECT(input.square());
  CCG_EXPECT(input.is_symmetric(1e-6 * (1.0 + input.frobenius())));
  const std::size_t n = input.rows();

  Matrix a = input;                 // working copy, driven to diagonal
  Matrix vt = Matrix::identity(n);  // accumulated rotations, TRANSPOSED:
                                    // row j of vt is eigenvector column j

  const double frob = std::max(a.frobenius(), 1e-300);
  const double threshold = kTolerance * frob;

  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    // The off-diagonal scan reads n²/2 entries a sweep, against ~2n³ for
    // the sweep's rotations, so it runs simd::max_abs's one scalar body.
    double off = 0.0;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      off = std::max(off, simd::max_abs(&a(p, p + 1), n - p - 1));
    }
    if (off <= threshold) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::abs(apq) <= threshold * 1e-3) continue;

        // Classical Jacobi rotation annihilating a(p,q).
        const double app = a(p, p);
        const double aqq = a(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        apply_rotation_offblock(a, vt, p, q, c, s);

        // The 2x2 pivot block, applied in the serial algorithm's exact
        // order: column update at k = p, q, then row update at k = p, q.
        {
          const double akp = a(p, p), akq = a(p, q);
          a(p, p) = c * akp - s * akq;
          a(p, q) = s * akp + c * akq;
        }
        {
          const double akp = a(q, p), akq = a(q, q);
          a(q, p) = c * akp - s * akq;
          a(q, q) = s * akp + c * akq;
        }
        {
          const double apk = a(p, p), aqk = a(q, p);
          a(p, p) = c * apk - s * aqk;
          a(q, p) = s * apk + c * aqk;
        }
        {
          const double apk = a(p, q), aqk = a(q, q);
          a(p, q) = c * apk - s * aqk;
          a(q, q) = s * apk + c * aqk;
        }
      }
    }
  }

  // Extract and sort by descending |eigenvalue| — the order PCA truncates in.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> diag(n);
  for (std::size_t i = 0; i < n; ++i) diag[i] = a(i, i);
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return std::abs(diag[x]) > std::abs(diag[y]);
  });

  EigenDecomposition out;
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.values[j] = diag[order[j]];
    for (std::size_t i = 0; i < n; ++i) {
      out.vectors(i, j) = vt(order[j], i);
    }
  }
  return out;
}

}  // namespace ccg
