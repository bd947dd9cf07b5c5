#include "ccg/linalg/eigen.hpp"

#include <algorithm>
#include <array>
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

/// The rotations of one p-row are taken in blocks of this many consecutive
/// q's, whose column updates are batched row by row (see jacobi_eigen).
/// Any width gives the same bits; 16, 32 and 64 timed alike on the k8s
/// preset's fit matrix (n = 411).
constexpr std::size_t kBlock = 32;

struct Rotation {
  std::size_t q;
  double c;
  double s;
};

/// One rotation of the entry pair (x, y): x ← c·x − s·y, y ← s·x + c·y.
/// The column update of row k rotates (a(k,p), a(k,q)), the row update of
/// column k rotates (a(p,k), a(q,k)).
inline void rotate(double& x, double& y, double c, double s) {
  const double x0 = x;
  const double y0 = y;
  x = c * x0 - s * y0;
  y = s * x0 + c * y0;
}

/// Applies a block's column rotations, in order, to rows [lo, hi) of `a`.
/// Each row is one chain that carries a(k, p) in a register along the
/// row's contiguous block segment; four rows run interleaved so their
/// chains overlap. Every entry gets the multiplies and adds of the
/// per-rotation update, in the same order.
void rotate_columns(Matrix& a, std::size_t p, const Rotation* block,
                    std::size_t m, std::size_t lo, std::size_t hi) {
  const std::size_t n = a.cols();
  std::size_t k = lo;
  for (; k + 4 <= hi; k += 4) {
    double* r0 = &a(k, 0);
    double* r1 = r0 + n;
    double* r2 = r1 + n;
    double* r3 = r2 + n;
    double x0 = r0[p], x1 = r1[p], x2 = r2[p], x3 = r3[p];
    for (std::size_t i = 0; i < m; ++i) {
      const auto [q, c, s] = block[i];
      rotate(x0, r0[q], c, s);
      rotate(x1, r1[q], c, s);
      rotate(x2, r2[q], c, s);
      rotate(x3, r3[q], c, s);
    }
    r0[p] = x0;
    r1[p] = x1;
    r2[p] = x2;
    r3[p] = x3;
  }
  for (; k < hi; ++k) {
    double* r = &a(k, 0);
    double x = r[p];
    for (std::size_t i = 0; i < m; ++i) rotate(x, r[block[i].q], block[i].c, block[i].s);
    r[p] = x;
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
  std::array<Rotation, kBlock> block;

  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    // max is exact, so the scan order cannot change the sweep count.
    double off = 0.0;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t j = p + 1; j < n; ++j) {
        const double v = std::abs(a(p, j));
        if (v > off) off = v;
      }
    }
    if (off <= threshold) break;

    // Rotation (p, q) updates rows p/q of `a` and of `vt` (contiguous:
    // simd::rotate_pair, element-wise exact) and columns p/q of `a`
    // (strided). Within a block of q's [q0, q1), a row k outside
    // {p} ∪ [q0, q1) has only a(k, p) and a(k, q0..q1) touched by the
    // block, by its column updates, and nothing else reads them before the
    // block ends. So those rows get the block's column rotations afterwards
    // in one pass (rotate_columns), a cache-friendly row walk instead of a
    // strided column walk per rotation. Rows p and [q0, q1) are the
    // block's pivots: their column updates interleave with their row
    // updates and stay per rotation. Every entry sees the same arithmetic
    // in the same order as the unbatched sweep, so the bits match it.
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q0 = p + 1; q0 < n; q0 += kBlock) {
        const std::size_t q1 = std::min(q0 + kBlock, n);
        std::size_t m = 0;
        for (std::size_t q = q0; q < q1; ++q) {
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

          simd::rotate_pair(&vt(p, 0), &vt(q, 0), c, s, n);
          // Row segments of `a` on either side of p and q; rotate_pair is
          // element-wise, so splitting at p/q changes nothing.
          std::size_t seg = 0;
          for (const std::size_t stop : {p, q, n}) {
            if (seg < stop) simd::rotate_pair(&a(p, seg), &a(q, seg), c, s, stop - seg);
            seg = stop + 1;
          }
          for (std::size_t k = q0; k < q1; ++k) {  // the block's own rows
            if (k != q) rotate(a(k, p), a(k, q), c, s);
          }
          // The 2x2 pivot block, in the serial algorithm's order: column
          // update at k = p, q, then row update at k = p, q.
          rotate(a(p, p), a(p, q), c, s);
          rotate(a(q, p), a(q, q), c, s);
          rotate(a(p, p), a(q, p), c, s);
          rotate(a(p, q), a(q, q), c, s);
          block[m++] = {q, c, s};
        }
        if (m == 0) continue;
        rotate_columns(a, p, block.data(), m, 0, p);
        rotate_columns(a, p, block.data(), m, p + 1, q0);
        rotate_columns(a, p, block.data(), m, q1, n);
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
