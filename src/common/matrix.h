// Dense linear algebra: row-major matrix and LU factorization with
// partial pivoting.  Used for small/medium crossbar nodal systems and as
// the reference solver the sparse CG backend is tested against.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.h"

namespace memcim {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting (in-place Doolittle).
///
/// Throws memcim::Error if the matrix is numerically singular.
class LuFactorization {
 public:
  explicit LuFactorization(Matrix a);

  /// Solve A·x = b for x.
  [[nodiscard]] std::vector<double> solve(const std::vector<double>& b) const;

  /// Determinant of the factored matrix (sign-corrected for pivoting).
  [[nodiscard]] double determinant() const;

 private:
  Matrix lu_;
  std::vector<std::size_t> pivot_;
  int pivot_sign_ = 1;
};

/// Convenience one-shot solve of A·x = b.
[[nodiscard]] std::vector<double> solve_dense(Matrix a, const std::vector<double>& b);

}  // namespace memcim
