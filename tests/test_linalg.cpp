#include "dsp/linalg.hpp"

#include <gtest/gtest.h>

#include "dsp/rng.hpp"

namespace spi::dsp {
namespace {

TEST(Matrix, BasicOperations) {
  Matrix m(2, 3);
  m.at(0, 0) = 1;
  m.at(0, 2) = 2;
  m.at(1, 1) = 3;
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  const std::vector<double> x{1, 1, 1};
  const auto y = m.multiply(x);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
  EXPECT_THROW((void)m.multiply(std::vector<double>{1, 2}), std::invalid_argument);
}

TEST(Matrix, Identity) {
  const Matrix i = Matrix::identity(3);
  const std::vector<double> x{4, 5, 6};
  EXPECT_EQ(i.multiply(x), x);
}

TEST(Lu, SolvesKnownSystem) {
  // 2x + y = 5; x + 3y = 10  =>  x = 1, y = 3.
  Matrix a(2, 2);
  a.at(0, 0) = 2;
  a.at(0, 1) = 1;
  a.at(1, 0) = 1;
  a.at(1, 1) = 3;
  const auto x = lu_solve(a, std::vector<double>{5, 10});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, RequiresPivoting) {
  // Zero on the leading diagonal forces a row swap.
  Matrix a(2, 2);
  a.at(0, 0) = 0;
  a.at(0, 1) = 1;
  a.at(1, 0) = 1;
  a.at(1, 1) = 0;
  const auto x = lu_solve(a, std::vector<double>{2, 7});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, SingularDetected) {
  Matrix a(2, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 2;
  a.at(1, 1) = 4;
  EXPECT_THROW(LuDecomposition{a}, std::domain_error);
}

TEST(Lu, NonSquareRejected) {
  EXPECT_THROW(LuDecomposition{Matrix(2, 3)}, std::invalid_argument);
}

TEST(Lu, DeterminantWithPivotSign) {
  Matrix a(2, 2);
  a.at(0, 0) = 0;
  a.at(0, 1) = 1;
  a.at(1, 0) = 1;
  a.at(1, 1) = 0;
  const LuDecomposition lu(a);
  EXPECT_NEAR(lu.determinant(), -1.0, 1e-12);
  EXPECT_EQ(lu.pivot_sign(), -1);
}

TEST(Lu, SolveDimensionChecked) {
  const LuDecomposition lu(Matrix::identity(3));
  EXPECT_THROW((void)lu.solve(std::vector<double>{1, 2}), std::invalid_argument);
}

class LuProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LuProperty, RandomSystemsSolveToResidualZero) {
  Rng rng(GetParam());
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 12));
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) a.at(r, c) = rng.uniform(-2, 2);
  // Diagonal dominance keeps the random matrix comfortably regular.
  for (std::size_t d = 0; d < n; ++d) a.at(d, d) += 4.0;
  std::vector<double> truth(n);
  for (auto& v : truth) v = rng.uniform(-5, 5);
  const std::vector<double> b = a.multiply(truth);
  const auto x = lu_solve(a, b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], truth[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LuProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707, 808));


// The 4-row-blocked matvec keeps each row's accumulation order
// unchanged (independent accumulators, one per row), so the result is
// bit-identical to the scalar reference — including the remainder rows
// when the row count is not a multiple of the block.
TEST(Matrix, VectorizedMultiplyMatchesScalarBitExact) {
  Rng rng(43);
  Matrix m(37, 29);  // 37 % 4 != 0: exercises the remainder rows
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c) m.at(r, c) = rng.uniform(-1, 1);
  std::vector<double> x(m.cols());
  for (auto& v : x) v = rng.uniform(-1, 1);

  EXPECT_EQ(m.multiply(x), m.multiply_reference(x));
}
}  // namespace
}  // namespace spi::dsp
