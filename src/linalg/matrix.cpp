#include "ccg/linalg/matrix.hpp"

#include <cmath>

#include "ccg/common/expect.hpp"

namespace ccg {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  CCG_EXPECT(data_.size() == rows_ * cols_);
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      t(c, r) = (*this)(r, c);
    }
  }
  return t;
}

Matrix Matrix::multiply(const Matrix& other) const {
  CCG_EXPECT(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  // ikj loop order: streams over the output row and the other matrix's row,
  // cache-friendly for row-major storage.
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;  // adjacency matrices are sparse
      const double* brow = &other.data_[k * other.cols_];
      double* orow = &out.data_[i * other.cols_];
      for (std::size_t j = 0; j < other.cols_; ++j) {
        orow[j] += aik * brow[j];
      }
    }
  }
  return out;
}

Matrix Matrix::operator-(const Matrix& other) const {
  CCG_EXPECT(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] = data_[i] - other.data_[i];
  }
  return out;
}

Matrix Matrix::operator+(const Matrix& other) const {
  CCG_EXPECT(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] = data_[i] + other.data_[i];
  }
  return out;
}

Matrix Matrix::scaled(double s) const {
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] * s;
  return out;
}

double Matrix::abs_sum() const {
  double total = 0.0;
  for (double v : data_) total += std::abs(v);
  return total;
}

double Matrix::frobenius() const {
  double total = 0.0;
  for (double v : data_) total += v * v;
  return std::sqrt(total);
}

bool Matrix::is_symmetric(double tolerance) const {
  if (!square()) return false;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = r + 1; c < cols_; ++c) {
      if (std::abs((*this)(r, c) - (*this)(c, r)) > tolerance) return false;
    }
  }
  return true;
}

Matrix Matrix::log1p() const {
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] = std::log1p(data_[i]);
  }
  return out;
}

}  // namespace ccg
