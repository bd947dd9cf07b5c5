// Symmetric eigendecomposition (cyclic Jacobi).
//
// Adjacency matrices of communication graphs are symmetric, so Jacobi is
// exact, simple and robust; n is a few hundred after heavy-hitter collapse,
// well inside Jacobi's comfort zone.
#pragma once

#include <cstddef>
#include <vector>

#include "ccg/linalg/matrix.hpp"

namespace ccg {

struct EigenDecomposition {
  /// Eigenvalues sorted by descending |value|.
  std::vector<double> values;
  /// Column j of `vectors` is the eigenvector for values[j].
  Matrix vectors;
};

/// Full eigendecomposition of a symmetric matrix via cyclic Jacobi sweeps.
/// Preconditions: m is square and symmetric. Converges when all
/// off-diagonal magnitudes fall below 1e-10 of the Frobenius norm, or
/// after 64 sweeps.
EigenDecomposition jacobi_eigen(const Matrix& m);

}  // namespace ccg
