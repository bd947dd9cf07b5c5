// Dense row-major matrix: just enough linear algebra for the paper's
// succinct-summary machinery (PCA sparse transforms, ICA), implemented from
// scratch — no external BLAS.
#pragma once

#include <cstddef>
#include <vector>

namespace ccg {

class Matrix {
 public:
  Matrix() = default;
  /// Zero-initialized rows x cols matrix.
  Matrix(std::size_t rows, std::size_t cols);
  /// Wraps existing row-major data. Precondition: data.size() == rows*cols.
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool square() const { return rows_ == cols_; }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  const std::vector<double>& data() const { return data_; }

  Matrix transpose() const;
  Matrix multiply(const Matrix& other) const;

  Matrix operator-(const Matrix& other) const;
  Matrix operator+(const Matrix& other) const;
  Matrix scaled(double s) const;

  /// Sum of absolute entries (L1, elementwise).
  double abs_sum() const;
  /// Frobenius norm.
  double frobenius() const;

  bool is_symmetric(double tolerance = 1e-9) const;

  /// Elementwise log1p copy: the paper's Fig. 4 matrices are color-coded in
  /// log scale; PCA on raw byte counts is dominated by the top edge, so the
  /// summaries operate on log-compressed volumes.
  Matrix log1p() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace ccg
