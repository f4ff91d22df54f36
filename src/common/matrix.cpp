#include "common/matrix.h"

#include <cmath>

namespace memcim {

LuFactorization::LuFactorization(Matrix a) : lu_(std::move(a)) {
  MEMCIM_CHECK_MSG(lu_.rows() == lu_.cols(), "LU requires a square matrix");
  const std::size_t n = lu_.rows();
  pivot_.resize(n);
  for (std::size_t i = 0; i < n; ++i) pivot_[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest |entry| in column k at or below the diagonal.
    std::size_t p = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::abs(lu_(r, k));
      if (v > best) {
        best = v;
        p = r;
      }
    }
    MEMCIM_CHECK_MSG(best > 0.0 && std::isfinite(best),
                     "singular matrix in LU at column " << k);
    if (p != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu_(p, c), lu_(k, c));
      std::swap(pivot_[p], pivot_[k]);
      pivot_sign_ = -pivot_sign_;
    }
    const double diag = lu_(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = lu_(r, k) / diag;
      lu_(r, k) = factor;
      for (std::size_t c = k + 1; c < n; ++c) lu_(r, c) -= factor * lu_(k, c);
    }
  }
}

std::vector<double> LuFactorization::solve(const std::vector<double>& b) const {
  const std::size_t n = lu_.rows();
  MEMCIM_CHECK_MSG(b.size() == n, "rhs size mismatch in LU solve");
  // Apply row permutation, then forward/back substitution.
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[pivot_[i]];
  for (std::size_t i = 1; i < n; ++i) {
    double acc = x[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * x[j];
    x[i] = acc;
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * x[j];
    x[ii] = acc / lu_(ii, ii);
  }
  return x;
}

double LuFactorization::determinant() const {
  double det = pivot_sign_;
  for (std::size_t i = 0; i < lu_.rows(); ++i) det *= lu_(i, i);
  return det;
}

std::vector<double> solve_dense(Matrix a, const std::vector<double>& b) {
  return LuFactorization(std::move(a)).solve(b);
}

}  // namespace memcim
