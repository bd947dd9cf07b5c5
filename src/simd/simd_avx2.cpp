// AVX2 backend. This TU is the only one compiled with -mavx2 (and it is
// deliberately self-contained — no repo headers beyond backend.hpp — so the
// linker can never pick an AVX2-codegen'd copy of a shared inline function
// for the rest of the binary). No FMA: -mavx2 does not enable -mfma and
// every arithmetic op below is an explicit mul/add/sub intrinsic, keeping
// each lane bit-identical to the scalar reference.
//
// Reductions implement the canonical 4-lane geometry: one __m256d is the
// four lanes, collapsed as (l0 + l1) + (l2 + l3) after the main loop.
#include "backend.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cmath>

namespace ccg::simd::detail {

namespace {

inline double collapse(__m256d acc) {
  double lane[4];
  _mm256_storeu_pd(lane, acc);
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

double dot_impl(const double* a, const double* b, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  double out = collapse(acc);
  for (; i < n; ++i) out += a[i] * b[i];
  return out;
}

double squared_distance_impl(const double* a, const double* b, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  double out = collapse(acc);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    out += d * d;
  }
  return out;
}

double gather_sum_impl(const double* base, const std::uint32_t* idx,
                       std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + i));
    acc = _mm256_add_pd(acc, _mm256_i32gather_pd(base, v, 8));
  }
  double out = collapse(acc);
  for (; i < n; ++i) out += base[idx[i]];
  return out;
}

double gather_dot_impl(const double* base, const std::uint32_t* idx,
                       const double* w, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(w + i),
                                           _mm256_i32gather_pd(base, v, 8)));
  }
  double out = collapse(acc);
  for (; i < n; ++i) out += w[i] * base[idx[i]];
  return out;
}

double masked_sum_impl(const std::uint32_t* ids, const double* w, std::size_t n,
                       std::uint32_t exclude_id) {
  const __m128i excl = _mm_set1_epi32(static_cast<int>(exclude_id));
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids + i));
    // keep-mask widened to 64-bit lanes for the double blend.
    const __m256i keep64 = _mm256_cvtepi32_epi64(_mm_cmpeq_epi32(v, excl));
    const __m256d wv = _mm256_loadu_pd(w + i);
    acc = _mm256_add_pd(
        acc, _mm256_andnot_pd(_mm256_castsi256_pd(keep64), wv));
  }
  double out = collapse(acc);
  for (; i < n; ++i) out += ids[i] != exclude_id ? w[i] : 0.0;
  return out;
}

double max_abs_impl(const double* a, std::size_t n) {
  const __m256d abs_mask = _mm256_castsi256_pd(
      _mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFll));
  __m256d best = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    best = _mm256_max_pd(best, _mm256_and_pd(_mm256_loadu_pd(a + i), abs_mask));
  }
  double lane[4];
  _mm256_storeu_pd(lane, best);
  double out = lane[0];
  if (lane[1] > out) out = lane[1];
  if (lane[2] > out) out = lane[2];
  if (lane[3] > out) out = lane[3];
  for (; i < n; ++i) {
    const double v = std::abs(a[i]);
    if (v > out) out = v;
  }
  return out;
}

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

double rank1_update_abs_sum_impl(double* row, const double* vec, double vr,
                                 std::size_t n) {
  const __m256d vrv = _mm256_set1_pd(vr);
  const __m256d abs_mask = _mm256_castsi256_pd(
      _mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFll));
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d updated =
        _mm256_sub_pd(_mm256_loadu_pd(row + i),
                      _mm256_mul_pd(vrv, _mm256_loadu_pd(vec + i)));
    _mm256_storeu_pd(row + i, updated);
    acc = _mm256_add_pd(acc, _mm256_and_pd(updated, abs_mask));
  }
  double out = collapse(acc);
  for (; i < n; ++i) {
    row[i] -= vr * vec[i];
    out += std::abs(row[i]);
  }
  return out;
}

std::uint32_t count_stamped_impl(const std::uint32_t* ids, std::size_t n,
                                 const std::uint32_t* stamp,
                                 std::uint32_t version) {
  const __m256i ver = _mm256_set1_epi32(static_cast<int>(version));
  const int* stamp_i = reinterpret_cast<const int*>(stamp);
  std::uint32_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids + i));
    const __m256i got = _mm256_i32gather_epi32(stamp_i, v, 4);
    const int mask = _mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(got, ver)));
    count += static_cast<std::uint32_t>(__builtin_popcount(mask));
  }
  for (; i < n; ++i) {
    if (stamp[ids[i]] == version) ++count;
  }
  return count;
}

WeightedOverlap weighted_overlap_impl(const std::uint32_t* ids, const double* w,
                                      std::size_t n, const std::uint32_t* stamp,
                                      const double* vweight,
                                      std::uint32_t version,
                                      std::uint32_t exclude_id) {
  const __m128i ver = _mm_set1_epi32(static_cast<int>(version));
  const __m128i excl = _mm_set1_epi32(static_cast<int>(exclude_id));
  const int* stamp_i = reinterpret_cast<const int*>(stamp);
  __m256d sum_min = _mm256_setzero_pd();
  __m256d sum_max = _mm256_setzero_pd();
  __m256d b_total = _mm256_setzero_pd();
  __m256d matched_a = _mm256_setzero_pd();
  __m256d matched_b = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids + i));
    const __m256i drop64 = _mm256_cvtepi32_epi64(_mm_cmpeq_epi32(v, excl));
    const __m256d wb =
        _mm256_andnot_pd(_mm256_castsi256_pd(drop64), _mm256_loadu_pd(w + i));
    b_total = _mm256_add_pd(b_total, wb);
    const __m256i match64 = _mm256_andnot_si256(
        drop64,
        _mm256_cvtepi32_epi64(_mm_cmpeq_epi32(
            _mm_i32gather_epi32(stamp_i, v, 4), ver)));
    const __m256d match_pd = _mm256_castsi256_pd(match64);
    // Neighbor ids are always valid indices, so the unconditional gather is
    // safe; unmatched lanes are zeroed afterwards.
    const __m256d wa = _mm256_and_pd(match_pd, _mm256_i32gather_pd(vweight, v, 8));
    const __m256d wbm = _mm256_and_pd(match_pd, wb);
    sum_min = _mm256_add_pd(sum_min, _mm256_min_pd(wa, wbm));
    sum_max = _mm256_add_pd(sum_max, _mm256_max_pd(wa, wbm));
    matched_a = _mm256_add_pd(matched_a, wa);
    matched_b = _mm256_add_pd(matched_b, wbm);
  }
  WeightedOverlap out;
  out.sum_min = collapse(sum_min);
  out.sum_max_matched = collapse(sum_max);
  out.b_total = collapse(b_total);
  out.matched_a = collapse(matched_a);
  out.matched_b = collapse(matched_b);
  for (; i < n; ++i) {
    const std::uint32_t id = ids[i];
    const bool keep = id != exclude_id;
    const double wb = keep ? w[i] : 0.0;
    out.b_total += wb;
    const bool matched = keep && stamp[id] == version;
    const double wa = matched ? vweight[id] : 0.0;
    const double wbm = matched ? wb : 0.0;
    out.sum_min += wa < wbm ? wa : wbm;
    out.sum_max_matched += wa > wbm ? wa : wbm;
    out.matched_a += wa;
    out.matched_b += wbm;
  }
  return out;
}

// 64x64→64 multiply from 32-bit halves (AVX2 has no _mm256_mullo_epi64):
// lo(a)·lo(b) + ((lo(a)·hi(b) + hi(a)·lo(b)) << 32), exact mod 2^64.
inline __m256i mul64(__m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i t1 = _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b);
  const __m256i t2 = _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32));
  const __m256i mid = _mm256_add_epi64(t1, t2);
  return _mm256_add_epi64(lo, _mm256_slli_epi64(mid, 32));
}

inline __m256i mix64_vec(__m256i x) {
  const __m256i c1 = _mm256_set1_epi64x(
      static_cast<long long>(0xFF51AFD7ED558CCDull));
  const __m256i c2 = _mm256_set1_epi64x(
      static_cast<long long>(0xC4CEB9FE1A85EC53ull));
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  x = mul64(x, c1);
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  x = mul64(x, c2);
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  return x;
}

// Unsigned 64-bit min via sign-flipped signed compare.
inline __m256i min_epu64(__m256i a, __m256i b) {
  const __m256i sign = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ull));
  const __m256i a_gt_b = _mm256_cmpgt_epi64(_mm256_xor_si256(a, sign),
                                            _mm256_xor_si256(b, sign));
  return _mm256_blendv_epi8(a, b, a_gt_b);
}

void minhash_update_impl(std::uint64_t feature_shifted,
                         const std::uint64_t* salts, std::uint64_t* sig,
                         std::size_t k) {
  const __m256i fs =
      _mm256_set1_epi64x(static_cast<long long>(feature_shifted));
  std::size_t h = 0;
  for (; h + 4 <= k; h += 4) {
    const __m256i salt =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(salts + h));
    const __m256i hv = mix64_vec(_mm256_xor_si256(fs, salt));
    const __m256i cur =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sig + h));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(sig + h),
                        min_epu64(cur, hv));
  }
  for (; h < k; ++h) {
    const std::uint64_t hv = mix64(feature_shifted ^ salts[h]);
    if (hv < sig[h]) sig[h] = hv;
  }
}

constexpr Backend kAvx2Backend = {
    Tier::kAvx2,
    dot_impl,
    squared_distance_impl,
    gather_sum_impl,
    gather_dot_impl,
    masked_sum_impl,
    max_abs_impl,
    rotate_pair_impl,
    rank1_update_impl,
    combine_rows_impl,
    rank1_update_abs_sum_impl,
    count_stamped_impl,
    weighted_overlap_impl,
    minhash_update_impl,
};

}  // namespace

const Backend* avx2_backend() { return &kAvx2Backend; }

}  // namespace ccg::simd::detail

#else  // !__AVX2__

namespace ccg::simd::detail {
const Backend* avx2_backend() { return nullptr; }
}  // namespace ccg::simd::detail

#endif
