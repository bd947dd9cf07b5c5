#include "ccg/linalg/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ccg/common/expect.hpp"
#include "ccg/common/rng.hpp"
#include "ccg/simd/simd.hpp"

namespace ccg {

namespace {

double sq_distance(const Matrix& data, std::size_t row, const Matrix& centroids,
                   std::size_t centroid) {
  // 4-lane simd reduction: the result depends only on cols().
  return simd::squared_distance(data.data().data() + row * data.cols(),
                                centroids.data().data() + centroid * centroids.cols(),
                                data.cols());
}

/// k-means++ seeding: each next centroid drawn proportional to squared
/// distance from the nearest chosen one.
Matrix seed_centroids(const Matrix& data, std::size_t k, Rng& rng) {
  const std::size_t n = data.rows();
  Matrix centroids(k, data.cols());
  std::vector<std::size_t> chosen;
  chosen.push_back(rng.uniform(n));

  std::vector<double> best_d2(n, std::numeric_limits<double>::infinity());
  for (std::size_t c = 0; c < k; ++c) {
    if (c > 0) {
      double total = 0.0;
      for (std::size_t r = 0; r < n; ++r) total += best_d2[r];
      std::size_t pick = 0;
      if (total > 0.0) {
        double target = rng.uniform01() * total;
        for (std::size_t r = 0; r < n; ++r) {
          target -= best_d2[r];
          if (target <= 0.0) {
            pick = r;
            break;
          }
        }
      } else {
        pick = rng.uniform(n);  // all points coincide
      }
      chosen.push_back(pick);
    }
    for (std::size_t col = 0; col < data.cols(); ++col) {
      centroids(c, col) = data(chosen.back(), col);
    }
    for (std::size_t r = 0; r < n; ++r) {
      best_d2[r] = std::min(best_d2[r], sq_distance(data, r, centroids, c));
    }
  }
  return centroids;
}

KMeansResult lloyd_once(const Matrix& data, std::size_t k, Rng& rng,
                        const KMeansOptions& options) {
  const std::size_t n = data.rows();
  KMeansResult result;
  result.centroids = seed_centroids(data, k, rng);
  result.labels.assign(n, 0);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // Assign: first-best tie-breaking in ascending c order.
    for (std::size_t r = 0; r < n; ++r) {
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < k; ++c) {
        const double d2 = sq_distance(data, r, result.centroids, c);
        if (d2 < best) {
          best = d2;
          result.labels[r] = static_cast<std::uint32_t>(c);
        }
      }
    }
    // Update.
    Matrix next(k, data.cols());
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t r = 0; r < n; ++r) {
      const auto c = result.labels[r];
      ++counts[c];
      for (std::size_t col = 0; col < data.cols(); ++col) {
        next(c, col) += data(r, col);
      }
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster at the farthest point from its centroid.
        std::size_t far = 0;
        double far_d2 = -1.0;
        for (std::size_t r = 0; r < n; ++r) {
          const double d2 =
              sq_distance(data, r, result.centroids, result.labels[r]);
          if (d2 > far_d2) {
            far_d2 = d2;
            far = r;
          }
        }
        for (std::size_t col = 0; col < data.cols(); ++col) {
          next(c, col) = data(far, col);
        }
        counts[c] = 1;
      } else {
        for (std::size_t col = 0; col < data.cols(); ++col) {
          next(c, col) /= static_cast<double>(counts[c]);
        }
      }
    }

    double movement = 0.0, scale = 1e-12;
    for (std::size_t c = 0; c < k; ++c) {
      for (std::size_t col = 0; col < data.cols(); ++col) {
        movement += std::abs(next(c, col) - result.centroids(c, col));
        scale += std::abs(next(c, col));
      }
    }
    result.centroids = std::move(next);
    result.iterations = iter + 1;
    if (movement / scale < options.tolerance) {
      result.converged = true;
      break;
    }
  }

  result.inertia = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    result.inertia += sq_distance(data, r, result.centroids, result.labels[r]);
  }
  return result;
}

}  // namespace

KMeansResult kmeans(const Matrix& data, std::size_t k, KMeansOptions options) {
  CCG_EXPECT(data.rows() > 0);
  CCG_EXPECT(k >= 1 && k <= data.rows());
  CCG_EXPECT(options.restarts >= 1);

  Rng rng(options.seed);
  KMeansResult best;
  best.inertia = std::numeric_limits<double>::infinity();
  for (int restart = 0; restart < options.restarts; ++restart) {
    KMeansResult run = lloyd_once(data, k, rng, options);
    if (run.inertia < best.inertia) best = std::move(run);
  }
  return best;
}

Matrix standardize_columns(const Matrix& data) {
  const std::size_t n = data.rows();
  Matrix out(n, data.cols());
  if (n == 0) return out;
  for (std::size_t c = 0; c < data.cols(); ++c) {
    double mean = 0.0;
    for (std::size_t r = 0; r < n; ++r) mean += data(r, c);
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      const double d = data(r, c) - mean;
      var += d * d;
    }
    var /= static_cast<double>(n);
    const double sd = std::sqrt(var);
    for (std::size_t r = 0; r < n; ++r) {
      out(r, c) = sd > 1e-12 ? (data(r, c) - mean) / sd : 0.0;
    }
  }
  return out;
}

}  // namespace ccg
