// AVX2 backend of the three tiered primitives. This TU is the only one
// compiled with -mavx2 (and it is deliberately self-contained — no repo
// headers beyond backend.hpp — so the linker can never pick an
// AVX2-codegen'd copy of a shared inline function for the rest of the
// binary). No FMA: -mavx2 does not enable -mfma and every arithmetic op
// below is an explicit mul/add/sub intrinsic, keeping each lane
// bit-identical to the scalar reference.
#include "backend.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace ccg::simd::detail {

namespace {

void rotate_pair_impl(double* x, double* y, double c, double s, std::size_t n) {
  const __m256d cv = _mm256_set1_pd(c);
  const __m256d sv = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xi = _mm256_loadu_pd(x + i);
    const __m256d yi = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(
        x + i, _mm256_sub_pd(_mm256_mul_pd(cv, xi), _mm256_mul_pd(sv, yi)));
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_mul_pd(sv, xi), _mm256_mul_pd(cv, yi)));
  }
  for (; i < n; ++i) {
    const double xi = x[i];
    const double yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

void rank1_update_impl(double* row, const double* vec, double vr,
                       std::size_t n) {
  const __m256d vrv = _mm256_set1_pd(vr);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        row + i, _mm256_add_pd(_mm256_loadu_pd(row + i),
                               _mm256_mul_pd(vrv, _mm256_loadu_pd(vec + i))));
  }
  for (; i < n; ++i) row[i] += vr * vec[i];
}

// One output element, summed in ascending j like every vector lane below:
// the column tail of each tile and the last m % 4 rows.
inline double combine_one(const double* w, const double* col, std::size_t ldr,
                          std::size_t k) {
  double acc = 0.0;
  for (std::size_t j = 0; j < k; ++j) acc += w[j] * col[j * ldr];
  return acc;
}

void combine_rows_impl(double* out, std::size_t ldo, const double* w,
                       std::size_t ldw, const double* rows, std::size_t ldr,
                       std::size_t m, std::size_t k, std::size_t n) {
  std::size_t r = 0;
  // Four output rows x eight columns per tile: each load of `rows` feeds
  // four rows' accumulators, which stay in registers across all k terms.
  for (; r + 4 <= m; r += 4) {
    const double* w0 = w + r * ldw;
    double* o0 = out + r * ldo;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      __m256d acc[4][2];
      for (auto& a : acc) a[0] = a[1] = _mm256_setzero_pd();
      for (std::size_t j = 0; j < k; ++j) {
        const double* x = rows + j * ldr + i;
        const __m256d x0 = _mm256_loadu_pd(x);
        const __m256d x1 = _mm256_loadu_pd(x + 4);
        for (std::size_t q = 0; q < 4; ++q) {
          const __m256d wv = _mm256_set1_pd(w0[q * ldw + j]);
          acc[q][0] = _mm256_add_pd(acc[q][0], _mm256_mul_pd(wv, x0));
          acc[q][1] = _mm256_add_pd(acc[q][1], _mm256_mul_pd(wv, x1));
        }
      }
      for (std::size_t q = 0; q < 4; ++q) {
        _mm256_storeu_pd(o0 + q * ldo + i, acc[q][0]);
        _mm256_storeu_pd(o0 + q * ldo + i + 4, acc[q][1]);
      }
    }
    for (; i < n; ++i) {
      for (std::size_t q = 0; q < 4; ++q) {
        o0[q * ldo + i] = combine_one(w0 + q * ldw, rows + i, ldr, k);
      }
    }
  }
  for (; r < m; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      out[r * ldo + i] = combine_one(w + r * ldw, rows + i, ldr, k);
    }
  }
}

constexpr Backend kAvx2Backend = {
    Tier::kAvx2,
    rotate_pair_impl,
    rank1_update_impl,
    combine_rows_impl,
};

}  // namespace

const Backend* avx2_backend() { return &kAvx2Backend; }

}  // namespace ccg::simd::detail

#else  // !__AVX2__

namespace ccg::simd::detail {
const Backend* avx2_backend() { return nullptr; }
}  // namespace ccg::simd::detail

#endif
