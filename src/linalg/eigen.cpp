#include "ccg/linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ccg/common/expect.hpp"
#include "ccg/parallel/parallel.hpp"
#include "ccg/simd/simd.hpp"

namespace ccg {

namespace {

// Below this dimension a Jacobi rotation is too small to amortize a pool
// dispatch; the rotation's element updates run inline. The off-diagonal
// scan and the rotation bodies are element-wise independent either way, so
// the cutoff affects speed only, never the result.
constexpr std::size_t kJacobiParallelMinDim = 256;

/// Applies the (p, q) rotation to rows p/q of `a` (contiguous — vectorized
/// with simd::rotate_pair, which is element-wise exact), to columns p/q of
/// `a` (strided — scalar), and to rows p/q of `vt` (the eigenvector matrix
/// stored TRANSPOSED precisely so its rotation touches two contiguous rows
/// instead of two strided columns). Each k reads and writes only a(k,p),
/// a(k,q), a(p,k), a(q,k), vt(p,k), vt(q,k) — disjoint across k and
/// untouched by the serial 2x2 block fix-up that follows — so the loop
/// parallelizes with byte-identical results.
void apply_rotation_offblock(Matrix& a, Matrix& vt, std::size_t p,
                             std::size_t q, double c, double s,
                             std::size_t k_begin, std::size_t k_end) {
  const std::size_t len = k_end - k_begin;
  simd::rotate_pair(&vt(p, k_begin), &vt(q, k_begin), c, s, len);

  // Row segments of `a`, skipping k ∈ {p, q} (handled by the 2x2 fix-up).
  // rotate_pair is element-wise, so splitting at p/q changes nothing.
  std::size_t seg = k_begin;
  for (const std::size_t stop : {std::min(p, q), std::max(p, q), k_end}) {
    const std::size_t hi = std::min(stop, k_end);
    if (seg < hi) {
      simd::rotate_pair(&a(p, seg), &a(q, seg), c, s, hi - seg);
    }
    seg = std::max(seg, std::min(hi + 1, k_end));
  }

  // Column updates stay scalar: stride-n access defeats vector loads, and
  // the element arithmetic is identical either way.
  for (std::size_t k = k_begin; k < k_end; ++k) {
    if (k == p || k == q) continue;
    const double akp = a(k, p);
    const double akq = a(k, q);
    a(k, p) = c * akp - s * akq;
    a(k, q) = s * akp + c * akq;
  }
}

}  // namespace

EigenDecomposition jacobi_eigen(const Matrix& input, double tolerance,
                                int max_sweeps) {
  parallel::ScopedJobTag job_tag("eigen");
  CCG_EXPECT(input.square());
  CCG_EXPECT(input.is_symmetric(1e-6 * (1.0 + input.frobenius())));
  const std::size_t n = input.rows();

  Matrix a = input;                 // working copy, driven to diagonal
  Matrix vt = Matrix::identity(n);  // accumulated rotations, TRANSPOSED:
                                    // row j of vt is eigenvector column j

  const double frob = std::max(a.frobenius(), 1e-300);
  const double threshold = tolerance * frob;
  const bool parallel_rotations =
      n >= kJacobiParallelMinDim && parallel::thread_count() > 1;

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    // max is associative and commutative, so the chunked reduction matches
    // the serial scan exactly (chunk geometry is thread-count independent),
    // and simd::max_abs over each row tail is exact at any vector width.
    const double off = parallel::parallel_reduce(
        n, 16, 0.0,
        [&](double& part, std::size_t begin, std::size_t end) {
          for (std::size_t p = begin; p < end; ++p) {
            if (p + 1 < n) {
              part = std::max(part, simd::max_abs(&a(p, p + 1), n - p - 1));
            }
          }
        },
        [](double& acc, double part) { acc = std::max(acc, part); });
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

        if (parallel_rotations) {
          parallel::parallel_for(n, 64, [&](std::size_t begin, std::size_t end) {
            apply_rotation_offblock(a, vt, p, q, c, s, begin, end);
          });
        } else {
          apply_rotation_offblock(a, vt, p, q, c, s, 0, n);
        }

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

PowerIterationResult power_iteration(const Matrix& m, int max_iterations,
                                     double tolerance) {
  parallel::ScopedJobTag job_tag("eigen");
  CCG_EXPECT(m.square());
  const std::size_t n = m.rows();
  PowerIterationResult result;
  if (n == 0) return result;

  // Deterministic non-degenerate start.
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 1.0 + 0.001 * static_cast<double>(i % 7);
  }

  // Mat-vec rows write disjoint outputs and each row is one canonical-
  // geometry simd::dot (fixed by n alone), so the parallel sweep is
  // byte-identical to the serial one at any tier and thread count; the
  // O(n) norm and Rayleigh reductions are single canonical dots.
  const double* rows = m.data().data();
  const auto matvec = [&](const std::vector<double>& in, std::vector<double>& out) {
    parallel::parallel_for(n, 16, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        out[i] = simd::dot(rows + i * n, in.data(), n);
      }
    });
  };

  double lambda = 0.0;
  std::vector<double> y(n);
  std::vector<double> my(n);
  for (int iter = 0; iter < max_iterations; ++iter) {
    matvec(x, y);
    double norm = std::sqrt(simd::dot(y.data(), y.data(), n));
    if (norm == 0.0) break;  // x in the null space
    for (std::size_t i = 0; i < n; ++i) y[i] /= norm;

    // Rayleigh quotient.
    matvec(y, my);
    const double new_lambda = simd::dot(y.data(), my.data(), n);
    result.iterations = iter + 1;
    x = y;
    if (std::abs(new_lambda - lambda) <= tolerance * (1.0 + std::abs(new_lambda))) {
      lambda = new_lambda;
      result.converged = true;
      break;
    }
    lambda = new_lambda;
  }
  result.value = lambda;
  result.vector = std::move(x);
  return result;
}

}  // namespace ccg
