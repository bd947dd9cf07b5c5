// Symmetric eigendecomposition (cyclic Jacobi).
//
// Adjacency matrices of communication graphs are symmetric, so Jacobi is
// exact, simple and robust; n is a few hundred after heavy-hitter collapse,
// well inside Jacobi's comfort zone.
//
// Each sweep visits the pairs (p, q) in row order. A rotation updates rows
// p and q of the working matrix and of the eigenvectors at once
// (contiguous, simd::rotate_pair); the strided column updates of a block
// of consecutive q's are applied after the block, row by row, to every
// row outside it. Every entry still gets the same multiplies and adds in
// the same order as the per-rotation sweep, so the result is bit-identical
// to it at every SIMD tier and thread count (tests/test_linalg.cpp keeps
// that sweep as a reference).
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
