// Scalar code: the one body of every untiered primitive, and the scalar
// backend of the three tiered ones (rotate_pair, rank1_update,
// combine_rows), which the AVX2 backend must match bit for bit. The
// 4-lane reductions model their lanes with a double[4]: lane j takes
// elements i % 4 == j, lanes collapse as (l0 + l1) + (l2 + l3), and the
// tail runs sequentially.
#include <cmath>

#include "backend.hpp"

namespace ccg::simd {

double squared_distance(const double* a, const double* b, std::size_t n) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    lane[0] += d0 * d0;
    lane[1] += d1 * d1;
    lane[2] += d2 * d2;
    lane[3] += d3 * d3;
  }
  double acc = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

double gather_sum(const double* base, const std::uint32_t* idx,
                  std::size_t n) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    lane[0] += base[idx[i]];
    lane[1] += base[idx[i + 1]];
    lane[2] += base[idx[i + 2]];
    lane[3] += base[idx[i + 3]];
  }
  double acc = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (; i < n; ++i) acc += base[idx[i]];
  return acc;
}

double gather_dot(const double* base, const std::uint32_t* idx, const double* w,
                  std::size_t n) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    lane[0] += w[i] * base[idx[i]];
    lane[1] += w[i + 1] * base[idx[i + 1]];
    lane[2] += w[i + 2] * base[idx[i + 2]];
    lane[3] += w[i + 3] * base[idx[i + 3]];
  }
  double acc = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (; i < n; ++i) acc += w[i] * base[idx[i]];
  return acc;
}

double masked_sum(const std::uint32_t* ids, const double* w, std::size_t n,
                  std::uint32_t exclude_id) {
  // Masked lanes add +0.0 — exact for the non-negative weights involved
  // (see the weighted_overlap contract in the public header).
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    lane[0] += ids[i] != exclude_id ? w[i] : 0.0;
    lane[1] += ids[i + 1] != exclude_id ? w[i + 1] : 0.0;
    lane[2] += ids[i + 2] != exclude_id ? w[i + 2] : 0.0;
    lane[3] += ids[i + 3] != exclude_id ? w[i + 3] : 0.0;
  }
  double acc = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (; i < n; ++i) acc += ids[i] != exclude_id ? w[i] : 0.0;
  return acc;
}

double rank1_update_abs_sum(double* row, const double* vec, double vr,
                            std::size_t n) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    row[i] -= vr * vec[i];
    row[i + 1] -= vr * vec[i + 1];
    row[i + 2] -= vr * vec[i + 2];
    row[i + 3] -= vr * vec[i + 3];
    lane[0] += std::abs(row[i]);
    lane[1] += std::abs(row[i + 1]);
    lane[2] += std::abs(row[i + 2]);
    lane[3] += std::abs(row[i + 3]);
  }
  double acc = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (; i < n; ++i) {
    row[i] -= vr * vec[i];
    acc += std::abs(row[i]);
  }
  return acc;
}

std::uint32_t count_stamped(const std::uint32_t* ids, std::size_t n,
                            const std::uint32_t* stamp, std::uint32_t version) {
  std::uint32_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (stamp[ids[i]] == version) ++count;
  }
  return count;
}

WeightedOverlap weighted_overlap(const std::uint32_t* ids, const double* w,
                                 std::size_t n, const std::uint32_t* stamp,
                                 const double* vweight, std::uint32_t version,
                                 std::uint32_t exclude_id) {
  double sum_min[4] = {0.0, 0.0, 0.0, 0.0};
  double sum_max[4] = {0.0, 0.0, 0.0, 0.0};
  double b_total[4] = {0.0, 0.0, 0.0, 0.0};
  double matched_a[4] = {0.0, 0.0, 0.0, 0.0};
  double matched_b[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t j = 0; j < 4; ++j) {
      const std::uint32_t id = ids[i + j];
      const bool keep = id != exclude_id;
      const double wb = keep ? w[i + j] : 0.0;
      b_total[j] += wb;
      const bool matched = keep && stamp[id] == version;
      const double wa = matched ? vweight[id] : 0.0;
      const double wbm = matched ? wb : 0.0;
      sum_min[j] += wa < wbm ? wa : wbm;
      sum_max[j] += wa > wbm ? wa : wbm;
      matched_a[j] += wa;
      matched_b[j] += wbm;
    }
  }
  WeightedOverlap out;
  out.sum_min = (sum_min[0] + sum_min[1]) + (sum_min[2] + sum_min[3]);
  out.sum_max_matched = (sum_max[0] + sum_max[1]) + (sum_max[2] + sum_max[3]);
  out.b_total = (b_total[0] + b_total[1]) + (b_total[2] + b_total[3]);
  out.matched_a =
      (matched_a[0] + matched_a[1]) + (matched_a[2] + matched_a[3]);
  out.matched_b =
      (matched_b[0] + matched_b[1]) + (matched_b[2] + matched_b[3]);
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

void minhash_update(std::uint64_t feature_shifted, const std::uint64_t* salts,
                    std::uint64_t* sig, std::size_t k) {
  for (std::size_t h = 0; h < k; ++h) {
    const std::uint64_t hv = mix64(feature_shifted ^ salts[h]);
    if (hv < sig[h]) sig[h] = hv;
  }
}

namespace detail {

namespace {

void rotate_pair_impl(double* x, double* y, double c, double s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = x[i];
    const double yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

void rank1_update_impl(double* row, const double* vec, double vr,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) row[i] += vr * vec[i];
}

void combine_rows_impl(double* out, std::size_t ldo, const double* w,
                       std::size_t ldw, const double* rows, std::size_t ldr,
                       std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < k; ++j) acc += w[r * ldw + j] * rows[j * ldr + i];
      out[r * ldo + i] = acc;
    }
  }
}

constexpr Backend kScalarBackend = {
    Tier::kScalar,
    rotate_pair_impl,
    rank1_update_impl,
    combine_rows_impl,
};

}  // namespace

const Backend* scalar_backend() { return &kScalarBackend; }

}  // namespace detail

}  // namespace ccg::simd
