#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "ccg/common/expect.hpp"
#include "ccg/common/rng.hpp"
#include "ccg/graph/builder.hpp"
#include "ccg/linalg/eigen.hpp"
#include "ccg/linalg/ica.hpp"
#include "ccg/linalg/matrix.hpp"
#include "ccg/linalg/pca.hpp"
#include "ccg/simd/simd.hpp"
#include "ccg/summarize/graph_pca.hpp"
#include "ccg/telemetry/collector.hpp"
#include "ccg/workload/driver.hpp"
#include "ccg/workload/presets.hpp"
#include "bits.hpp"

namespace ccg {
namespace {

Matrix random_symmetric(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.normal();
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

TEST(Matrix, BasicOps) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(1, 2) = 5;
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_FALSE(m.square());
  const Matrix t = m.transpose();
  EXPECT_EQ(t(2, 1), 5.0);
  EXPECT_EQ(t(0, 0), 1.0);
}

TEST(Matrix, MultiplyKnownValues) {
  Matrix a(2, 2, {1, 2, 3, 4});
  Matrix b(2, 2, {5, 6, 7, 8});
  const Matrix c = a.multiply(b);
  EXPECT_EQ(c(0, 0), 19.0);
  EXPECT_EQ(c(0, 1), 22.0);
  EXPECT_EQ(c(1, 0), 43.0);
  EXPECT_EQ(c(1, 1), 50.0);
  EXPECT_THROW(a.multiply(Matrix(3, 2)), ContractViolation);
}

TEST(Matrix, IdentityMultiplyIsNoop) {
  const Matrix m = random_symmetric(5, 1);
  const Matrix i = Matrix::identity(5);
  const Matrix mi = m.multiply(i);
  EXPECT_NEAR((m - mi).abs_sum(), 0.0, 1e-12);
}

TEST(Matrix, NormsAndSymmetry) {
  Matrix m(2, 2, {3, 0, 4, 0});
  EXPECT_DOUBLE_EQ(m.frobenius(), 5.0);
  EXPECT_DOUBLE_EQ(m.abs_sum(), 7.0);
  EXPECT_FALSE(m.is_symmetric());
  EXPECT_TRUE(random_symmetric(4, 2).is_symmetric());
}

TEST(Matrix, Log1pElementwise) {
  Matrix m(1, 2, {0.0, std::exp(1.0) - 1.0});
  const Matrix l = m.log1p();
  EXPECT_DOUBLE_EQ(l(0, 0), 0.0);
  EXPECT_NEAR(l(0, 1), 1.0, 1e-12);
}

TEST(JacobiEigen, DiagonalMatrixIsItsOwnDecomposition) {
  Matrix m(3, 3);
  m(0, 0) = 3.0;
  m(1, 1) = -7.0;
  m(2, 2) = 1.0;
  const auto eig = jacobi_eigen(m);
  // Sorted by |value|: -7, 3, 1.
  EXPECT_NEAR(eig.values[0], -7.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 3.0, 1e-10);
  EXPECT_NEAR(eig.values[2], 1.0, 1e-10);
}

TEST(JacobiEigen, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  Matrix m(2, 2, {2, 1, 1, 2});
  const auto eig = jacobi_eigen(m);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-10);
  // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::abs(eig.vectors(0, 0)), std::sqrt(0.5), 1e-8);
  EXPECT_NEAR(std::abs(eig.vectors(1, 0)), std::sqrt(0.5), 1e-8);
}

TEST(JacobiEigen, ReconstructsRandomSymmetric) {
  const Matrix m = random_symmetric(20, 3);
  const auto eig = jacobi_eigen(m);
  // M == E D E^T.
  Matrix d(20, 20);
  for (std::size_t i = 0; i < 20; ++i) d(i, i) = eig.values[i];
  const Matrix recon = eig.vectors.multiply(d).multiply(eig.vectors.transpose());
  EXPECT_NEAR((m - recon).frobenius() / m.frobenius(), 0.0, 1e-8);
  // values[0] is the dominant eigenvalue: |values| never increases.
  for (std::size_t i = 1; i < 20; ++i) {
    EXPECT_GE(std::abs(eig.values[i - 1]), std::abs(eig.values[i])) << i;
  }
}

TEST(JacobiEigen, VectorsAreOrthonormal) {
  const auto eig = jacobi_eigen(random_symmetric(12, 4));
  const Matrix vtv = eig.vectors.transpose().multiply(eig.vectors);
  EXPECT_NEAR((vtv - Matrix::identity(12)).frobenius(), 0.0, 1e-8);
}

TEST(JacobiEigen, RejectsAsymmetric) {
  Matrix m(2, 2, {1, 2, 3, 4});
  EXPECT_THROW(jacobi_eigen(m), ContractViolation);
}

// ---------------------------------------------------------------------------
// Equivalence with the per-rotation sweep jacobi_eigen ran before its
// column updates were batched. The reference below is that implementation,
// statement for statement (its off-diagonal scan called simd::max_abs, whose
// body was this plain max). The batched solve must reproduce every value
// and vector bit.

namespace per_rotation_reference {

EigenDecomposition jacobi_eigen(const Matrix& input) {
  const std::size_t n = input.rows();
  Matrix a = input;
  Matrix vt = Matrix::identity(n);
  const double frob = std::max(a.frobenius(), 1e-300);
  const double threshold = 1e-10 * frob;

  for (int sweep = 0; sweep < 64; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t j = p + 1; j < n; ++j) {
        const double v = std::abs(a(p, j));
        if (v > off) off = v;
      }
    }
    if (off <= threshold) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::abs(apq) <= threshold * 1e-3) continue;
        const double app = a(p, p);
        const double aqq = a(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // Rows p/q of `a` and `vt` (contiguous), then columns p/q of `a`
        // (strided, every row k ∉ {p, q}), then the 2x2 pivot block.
        simd::rotate_pair(&vt(p, 0), &vt(q, 0), c, s, n);
        std::size_t seg = 0;
        for (const std::size_t stop : {p, q, n}) {
          if (seg < stop) simd::rotate_pair(&a(p, seg), &a(q, seg), c, s, stop - seg);
          seg = stop + 1;
        }
        for (std::size_t k = 0; k < n; ++k) {
          if (k == p || k == q) continue;
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
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
    for (std::size_t i = 0; i < n; ++i) out.vectors(i, j) = vt(order[j], i);
  }
  return out;
}

}  // namespace per_rotation_reference

/// "" when jacobi_eigen and the reference agree bit for bit; else what
/// differs.
std::string compare_with_reference(const Matrix& m) {
  const EigenDecomposition want = per_rotation_reference::jacobi_eigen(m);
  const EigenDecomposition got = jacobi_eigen(m);
  std::string diff;
  if (bits(got.values) != bits(want.values)) diff += " values";
  if (bits(got.vectors.data()) != bits(want.vectors.data())) diff += " vectors";
  return diff;
}

/// jacobi_eigen batches the column updates of 32 consecutive q's.
constexpr std::size_t kBlock = 32;

TEST(JacobiMatchesPerRotationReference, OnSeededDenseMatrices) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3}, kBlock - 1,
        kBlock, kBlock + 1, 2 * kBlock + 1, std::size_t{300}}) {
    EXPECT_EQ(compare_with_reference(random_symmetric(n, 100 + n)), "") << "n=" << n;
  }
}

TEST(JacobiMatchesPerRotationReference, OnMatricesWithExactZeros) {
  // Pairs whose a(p,q) is an exact zero are skipped. Two decoupled groups,
  // [0, 40) and [40, 120), keep every cross pair at zero through all
  // sweeps: for p < 40 the group boundary falls inside a block, and the
  // blocks past q = 65 are skipped whole. Interleaved groups (i % 3 == 0)
  // skip inside every block, and a sparse matrix with zeros of both signs
  // starts with skips that its rotations fill in.
  const auto decoupled = [](std::size_t n, auto group) {
    Matrix m = random_symmetric(n, 200 + n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (group(i) != group(j)) m(i, j) = 0.0;
      }
    }
    return m;
  };
  EXPECT_EQ(compare_with_reference(decoupled(120, [](std::size_t i) { return i < 40; })), "")
      << "split groups";
  EXPECT_EQ(compare_with_reference(decoupled(100, [](std::size_t i) { return i % 3 == 0; })), "")
      << "interleaved groups";

  Rng rng(301);
  Matrix sparse = random_symmetric(97, 302);
  for (std::size_t i = 0; i < 97; ++i) {
    for (std::size_t j = i + 1; j < 97; ++j) {
      if (rng.chance(0.8)) sparse(i, j) = sparse(j, i) = rng.chance(0.5) ? 0.0 : -0.0;
    }
  }
  EXPECT_EQ(compare_with_reference(sparse), "") << "sparse";

  Matrix diagonal(40, 40);
  for (std::size_t i = 0; i < 40; ++i) diagonal(i, i) = static_cast<double>(i % 7) - 3.0;
  EXPECT_EQ(compare_with_reference(diagonal), "") << "diagonal";
}

TEST(JacobiMatchesPerRotationReference, OnSimulatedK8sFitMatrix) {
  // The spectral detector's fit input as `anomaly --window 3` builds it:
  // the log-byte adjacency of the first three 3-minute windows of the k8s
  // preset (at an eighth of its rate), averaged over one shared node index.
  Cluster cluster(presets::k8s_paas(0.125), 7);
  TelemetryHub hub(ProviderProfile::azure(), 7);
  SimulationDriver driver(cluster, hub);
  const auto monitored = cluster.monitored_ips();
  GraphBuilder builder({.window_minutes = 3, .collapse_threshold = 0.001},
                       {monitored.begin(), monitored.end()});
  hub.set_sink(&builder);
  driver.run(TimeWindow::minutes(0, 9));
  builder.flush();
  const auto windows = builder.take_graphs();
  ASSERT_EQ(windows.size(), 3u);

  std::vector<const CommGraph*> baseline;
  for (const CommGraph& g : windows) baseline.push_back(&g);
  const NodeIndex index = NodeIndex::from_graphs(baseline);
  Matrix mean(index.size(), index.size());
  for (const CommGraph* g : baseline) mean = mean + adjacency_matrix(*g, index);
  mean = mean.scaled(1.0 / static_cast<double>(baseline.size()));
  ASSERT_GT(index.size(), 2 * kBlock);
  EXPECT_EQ(compare_with_reference(mean), "") << "n=" << index.size();
}

TEST(PcaSummary, FullRankReconstructsExactly) {
  const Matrix m = random_symmetric(10, 6);
  PcaSummary pca(m);
  EXPECT_NEAR(pca.reconstruction_error(10), 0.0, 1e-8);
}

TEST(PcaSummary, ErrorCurveIsMonotoneNonIncreasing) {
  const Matrix m = random_symmetric(16, 7);
  PcaSummary pca(m);
  const auto curve = pca.error_curve(16);
  ASSERT_EQ(curve.size(), 17u);
  EXPECT_NEAR(curve[0], 1.0, 1e-9);  // k=0 keeps nothing
  for (std::size_t k = 1; k < curve.size(); ++k) {
    EXPECT_LE(curve[k], curve[k - 1] + 1e-9) << "k=" << k;
  }
  EXPECT_NEAR(curve[16], 0.0, 1e-8);
}

TEST(PcaSummary, ErrorCurveMatchesDirectReconstruction) {
  const Matrix m = random_symmetric(12, 8);
  PcaSummary pca(m);
  const auto curve = pca.error_curve(12);
  for (const std::size_t k : {1u, 4u, 9u}) {
    EXPECT_NEAR(curve[k], pca.reconstruction_error(k), 1e-9);
  }
}

TEST(PcaSummary, LowRankMatrixNeedsFewComponents) {
  // Rank-2 matrix: v1 v1^T * 5 + v2 v2^T * 2.
  const std::size_t n = 30;
  Rng rng(9);
  std::vector<double> v1(n), v2(n);
  for (std::size_t i = 0; i < n; ++i) {
    v1[i] = rng.normal();
    v2[i] = rng.normal();
  }
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      m(i, j) = 5.0 * v1[i] * v1[j] + 2.0 * v2[i] * v2[j];
    }
  }
  PcaSummary pca(m);
  EXPECT_LE(pca.rank_for_error(0.01), 2u);
  EXPECT_NEAR(pca.spectral_mass(2), 1.0, 1e-8);
}

TEST(PcaSummary, SpectralMassIsMonotone) {
  PcaSummary pca(random_symmetric(10, 10));
  double prev = 0.0;
  for (std::size_t k = 0; k <= 10; ++k) {
    const double mass = pca.spectral_mass(k);
    EXPECT_GE(mass, prev - 1e-12);
    prev = mass;
  }
  EXPECT_NEAR(prev, 1.0, 1e-12);
}

TEST(FastIca, RecoversLowRankStructureBetterThanNoise) {
  // Two independent sources mixed into 6 channels.
  const std::size_t samples = 400;
  Rng rng(11);
  Matrix data(samples, 6);
  for (std::size_t t = 0; t < samples; ++t) {
    const double s1 = rng.chance(0.5) ? 1.0 : -1.0;                 // binary source
    const double s2 = std::sin(0.1 * static_cast<double>(t)) * 2.0;  // deterministic
    for (std::size_t c = 0; c < 6; ++c) {
      data(t, c) = s1 * (0.3 + 0.1 * static_cast<double>(c)) +
                   s2 * (1.0 - 0.1 * static_cast<double>(c)) + 0.01 * rng.normal();
    }
  }
  FastIca ica;
  const double err2 = ica.reconstruction_error(data, 2);
  EXPECT_LT(err2, 0.1);  // two components capture two sources
  const double err1 = ica.reconstruction_error(data, 1);
  EXPECT_GT(err1, err2);
}

TEST(FastIca, FitReturnsRequestedComponentCount) {
  Rng rng(12);
  Matrix data(100, 5);
  for (std::size_t t = 0; t < 100; ++t) {
    for (std::size_t c = 0; c < 5; ++c) data(t, c) = rng.normal();
  }
  const auto result = FastIca().fit(data, 3);
  EXPECT_EQ(result.components.rows(), 3u);
  EXPECT_EQ(result.components.cols(), 5u);
  EXPECT_EQ(result.sources.rows(), 100u);
  EXPECT_EQ(result.sources.cols(), 3u);
  EXPECT_EQ(result.mixing.rows(), 5u);
  EXPECT_EQ(result.mixing.cols(), 3u);
  EXPECT_THROW(FastIca().fit(data, 0), ContractViolation);
  EXPECT_THROW(FastIca().fit(data, 6), ContractViolation);
}

}  // namespace
}  // namespace ccg
