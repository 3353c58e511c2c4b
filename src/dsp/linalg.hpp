/// \file linalg.hpp
/// Dense linear algebra: LU decomposition with partial pivoting.
///
/// Actor C of the paper's speech application computes LPC predictor
/// coefficients by solving the normal equations via LU decomposition.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace spi::dsp {

/// Dense row-major matrix.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  [[nodiscard]] static Matrix identity(std::size_t n);

  /// Matrix-vector product (x.size() must equal cols()).
  [[nodiscard]] std::vector<double> multiply(std::span<const double> x) const;
  /// Scalar reference for multiply(): one row at a time, bit-identical.
  [[nodiscard]] std::vector<double> multiply_reference(std::span<const double> x) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// LU decomposition with partial pivoting: PA = LU, stored packed.
class LuDecomposition {
 public:
  /// Factorizes a square matrix. Throws std::domain_error when the matrix
  /// is numerically singular.
  explicit LuDecomposition(Matrix a);

  [[nodiscard]] std::size_t order() const { return lu_.rows(); }
  [[nodiscard]] int pivot_sign() const { return pivot_sign_; }
  [[nodiscard]] double determinant() const;

  /// Solves A x = b.
  [[nodiscard]] std::vector<double> solve(std::span<const double> b) const;

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
  int pivot_sign_ = 1;
};

/// Convenience: solve A x = b in one call.
[[nodiscard]] std::vector<double> lu_solve(Matrix a, std::span<const double> b);

}  // namespace spi::dsp
