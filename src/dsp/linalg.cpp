#include "dsp/linalg.hpp"

#include <cmath>
#include <stdexcept>

namespace spi::dsp {

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1.0;
  return m;
}

std::vector<double> Matrix::multiply(std::span<const double> x) const {
  if (x.size() != cols_) throw std::invalid_argument("Matrix::multiply: dimension mismatch");
  std::vector<double> y(rows_, 0.0);
  // Four rows per pass: each row keeps its own accumulator (the same
  // c-ascending addition order as the scalar path, so bit-identical),
  // and the shared x[c] load plus four independent FMA chains give the
  // vectorizer/scheduler real ILP to work with.
  const double* a = data_.data();
  std::size_t r = 0;
  for (; r + 4 <= rows_; r += 4) {
    const double* r0 = a + r * cols_;
    const double* r1 = r0 + cols_;
    const double* r2 = r1 + cols_;
    const double* r3 = r2 + cols_;
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) {
      const double xc = x[c];
      a0 += r0[c] * xc;
      a1 += r1[c] * xc;
      a2 += r2[c] * xc;
      a3 += r3[c] * xc;
    }
    y[r] = a0;
    y[r + 1] = a1;
    y[r + 2] = a2;
    y[r + 3] = a3;
  }
  for (; r < rows_; ++r) {
    const double* row = a + r * cols_;
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

std::vector<double> Matrix::multiply_reference(std::span<const double> x) const {
  if (x.size() != cols_) throw std::invalid_argument("Matrix::multiply: dimension mismatch");
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += at(r, c) * x[c];
    y[r] = acc;
  }
  return y;
}

LuDecomposition::LuDecomposition(Matrix a) : lu_(std::move(a)) {
  if (lu_.rows() != lu_.cols())
    throw std::invalid_argument("LuDecomposition: matrix must be square");
  const std::size_t n = lu_.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest magnitude in column k at or below the diagonal.
    std::size_t pivot = k;
    double best = std::abs(lu_.at(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::abs(lu_.at(r, k));
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    if (best < 1e-12) throw std::domain_error("LuDecomposition: singular matrix");
    if (pivot != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu_.at(pivot, c), lu_.at(k, c));
      std::swap(perm_[pivot], perm_[k]);
      pivot_sign_ = -pivot_sign_;
    }
    // Rank-1 update through row pointers: same element-wise arithmetic as
    // indexing via at(), but the hoisted bases let the compiler vectorize
    // the trailing-row axpy.
    double* pivot_row = &lu_.at(k, 0);
    for (std::size_t r = k + 1; r < n; ++r) {
      double* row = &lu_.at(r, 0);
      const double factor = row[k] / pivot_row[k];
      row[k] = factor;  // store L below the diagonal
      for (std::size_t c = k + 1; c < n; ++c) row[c] -= factor * pivot_row[c];
    }
  }
}

double LuDecomposition::determinant() const {
  double det = pivot_sign_;
  for (std::size_t i = 0; i < order(); ++i) det *= lu_.at(i, i);
  return det;
}

std::vector<double> LuDecomposition::solve(std::span<const double> b) const {
  const std::size_t n = order();
  if (b.size() != n) throw std::invalid_argument("LuDecomposition::solve: dimension mismatch");
  // Apply permutation, then forward (L) and back (U) substitution.
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
  for (std::size_t i = 1; i < n; ++i) {
    double acc = x[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_.at(i, j) * x[j];
    x[i] = acc;
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_.at(ii, j) * x[j];
    x[ii] = acc / lu_.at(ii, ii);
  }
  return x;
}

std::vector<double> lu_solve(Matrix a, std::span<const double> b) {
  return LuDecomposition(std::move(a)).solve(b);
}

}  // namespace spi::dsp
