// Dense matrix helpers the linear-algebra tests check residuals with.
// No binary needs them: the solvers multiply through SparseMatrix.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/error.h"
#include "common/matrix.h"

namespace memcim {

/// y = A·x.
[[nodiscard]] inline std::vector<double> multiply(
    const Matrix& a, const std::vector<double>& x) {
  MEMCIM_CHECK_MSG(x.size() == a.cols(), "matrix-vector size mismatch: "
                                             << a.cols() << " cols vs "
                                             << x.size());
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < a.cols(); ++c) acc += a(r, c) * x[c];
    y[r] = acc;
  }
  return y;
}

/// Max-abs element.
[[nodiscard]] inline double max_abs(const Matrix& a) {
  double m = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      m = std::max(m, std::abs(a(r, c)));
  return m;
}

}  // namespace memcim
