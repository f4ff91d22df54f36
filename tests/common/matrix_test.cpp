#include "common/matrix.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "support/dense_ops.h"

namespace memcim {
namespace {

Matrix identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

TEST(Matrix, IdentitySolveReturnsRhs) {
  const auto eye = identity(4);
  const std::vector<double> b{1.0, -2.0, 3.5, 0.0};
  EXPECT_EQ(solve_dense(eye, b), b);
}

TEST(Matrix, MultiplyMatchesHandComputation) {
  Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  const auto y = multiply(a, {1.0, 1.0, 1.0});
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
}

TEST(Matrix, SolveKnownSystem) {
  // 2x + y = 5;  x + 3y = 10  →  x = 1, y = 3.
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  const auto x = solve_dense(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Matrix, SolveRequiresPivoting) {
  // Zero on the leading diagonal forces a row swap.
  Matrix a(2, 2);
  a(0, 0) = 0;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 0;
  const auto x = solve_dense(a, {2.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Matrix, RandomRoundTrip) {
  Rng rng(7);
  const std::size_t n = 30;
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
    a(r, r) += n;  // diagonally dominant → well-conditioned
  }
  std::vector<double> x_true(n);
  for (auto& v : x_true) v = rng.uniform(-10.0, 10.0);
  const auto b = multiply(a, x_true);
  const auto x = solve_dense(a, b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(Matrix, SingularThrows) {
  Matrix a(2, 2);  // rank 1
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  EXPECT_THROW(LuFactorization{a}, Error);
}

TEST(Matrix, DeterminantWithPivotSign) {
  Matrix a(2, 2);
  a(0, 0) = 0;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 0;
  EXPECT_NEAR(LuFactorization{a}.determinant(), -1.0, 1e-12);
  EXPECT_NEAR(LuFactorization{identity(5)}.determinant(), 1.0, 1e-12);
}

TEST(Matrix, SizeMismatchChecks) {
  Matrix a(2, 2, 1.0);
  EXPECT_THROW((void)multiply(a, {1.0}), Error);
  EXPECT_THROW((void)solve_dense(a, {1.0, 2.0, 3.0}), Error);
  EXPECT_THROW(LuFactorization{Matrix(2, 3)}, Error);
}

TEST(Matrix, MaxAbs) {
  Matrix a(2, 2);
  a(0, 1) = -9.0;
  a(1, 1) = 3.0;
  EXPECT_DOUBLE_EQ(max_abs(a), 9.0);
}

}  // namespace
}  // namespace memcim
