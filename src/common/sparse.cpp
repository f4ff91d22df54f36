#include "common/sparse.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/parallel.h"
#include "telemetry/telemetry.h"

namespace memcim {

SparseMatrix::SparseMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols) {}

void SparseMatrix::add(std::size_t r, std::size_t c, double value) {
  MEMCIM_CHECK_MSG(r < rows_ && c < cols_,
                   "sparse add out of range: (" << r << ',' << c << ')');
  triplets_.push_back({r, c, value});
  finalized_ = false;
}

void SparseMatrix::finalize() {
  // stable_sort keeps duplicates in insertion order, so their summation
  // order (and hence the rounded value) is reproducible.
  std::stable_sort(triplets_.begin(), triplets_.end(),
                   [](const Triplet& a, const Triplet& b) {
                     return a.r != b.r ? a.r < b.r : a.c < b.c;
                   });
  row_ptr_.assign(rows_ + 1, 0);
  col_idx_.clear();
  values_.clear();
  col_idx_.reserve(triplets_.size());
  values_.reserve(triplets_.size());

  for (std::size_t i = 0; i < triplets_.size();) {
    const std::size_t r = triplets_[i].r;
    const std::size_t c = triplets_[i].c;
    double sum = 0.0;
    while (i < triplets_.size() && triplets_[i].r == r && triplets_[i].c == c) {
      sum += triplets_[i].v;
      ++i;
    }
    col_idx_.push_back(c);
    values_.push_back(sum);
    row_ptr_[r + 1] = col_idx_.size();
  }
  // Rows with no entries inherit the running prefix.
  for (std::size_t r = 1; r <= rows_; ++r)
    row_ptr_[r] = std::max(row_ptr_[r], row_ptr_[r - 1]);
  finalized_ = true;
}

void SparseMatrix::begin_update(const std::vector<double>& base) {
  MEMCIM_CHECK_MSG(finalized_, "begin_update() requires finalize()");
  MEMCIM_CHECK_MSG(base.size() == values_.size(),
                   "begin_update() base size mismatch");
  values_ = base;
}

std::size_t SparseMatrix::slot(std::size_t r, std::size_t c) const {
  MEMCIM_CHECK_MSG(finalized_, "slot() requires finalize()");
  MEMCIM_CHECK_MSG(r < rows_ && c < cols_,
                   "slot out of range: (" << r << ',' << c << ')');
  const auto first = col_idx_.begin() +
                     static_cast<std::ptrdiff_t>(row_ptr_[r]);
  const auto last = col_idx_.begin() +
                    static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
  const auto it = std::lower_bound(first, last, c);
  MEMCIM_CHECK_MSG(it != last && *it == c,
                   "slot(): (" << r << ',' << c
                               << ") is not a structural nonzero");
  return static_cast<std::size_t>(it - col_idx_.begin());
}

void SparseMatrix::add_slot(std::size_t s, double value) {
  MEMCIM_CHECK_MSG(finalized_ && s < values_.size(), "add_slot out of range");
  values_[s] += value;
}

const std::vector<double>& SparseMatrix::values() const {
  MEMCIM_CHECK(finalized_);
  return values_;
}

std::vector<double> SparseMatrix::multiply(const std::vector<double>& x) const {
  MEMCIM_CHECK_MSG(finalized_, "multiply() on a non-finalized SparseMatrix");
  MEMCIM_CHECK_MSG(x.size() == cols_, "sparse matvec size mismatch");
  std::vector<double> y(rows_, 0.0);
  // Row blocks are independent; the k-loop order inside each row is
  // fixed, so any thread count produces bitwise-identical y.
  parallel_for_chunks(0, rows_, 2048,
                      [this, &x, &y](std::size_t lo, std::size_t hi) {
                        for (std::size_t r = lo; r < hi; ++r) {
                          double acc = 0.0;
                          for (std::size_t k = row_ptr_[r];
                               k < row_ptr_[r + 1]; ++k)
                            acc += values_[k] * x[col_idx_[k]];
                          y[r] = acc;
                        }
                      });
  return y;
}

std::vector<double> SparseMatrix::diagonal() const {
  MEMCIM_CHECK(finalized_);
  std::vector<double> d(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      if (col_idx_[k] == r) d[r] = values_[k];
  return d;
}

Matrix SparseMatrix::to_dense() const {
  MEMCIM_CHECK(finalized_);
  Matrix m(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      m(r, col_idx_[k]) += values_[k];
  return m;
}

namespace {

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  return std::inner_product(a.begin(), a.end(), b.begin(), 0.0);
}

double norm2(const std::vector<double>& a) { return std::sqrt(dot(a, a)); }

}  // namespace

namespace {

CgResult cg_impl(const SparseMatrix& a, const std::vector<double>& b,
                 const CgOptions& options) {
  MEMCIM_CHECK_MSG(a.rows() == a.cols(), "CG requires a square matrix");
  MEMCIM_CHECK_MSG(b.size() == a.rows(), "CG rhs size mismatch");
  MEMCIM_CHECK_MSG(options.x0.empty() || options.x0.size() == b.size(),
                   "CG warm-start size mismatch");
  const std::size_t n = a.rows();
  const std::size_t max_iter =
      options.max_iterations > 0 ? options.max_iterations : 10 * n;

  // Jacobi preconditioner M = diag(A); zero diagonals fall back to 1.
  std::vector<double> inv_diag = a.diagonal();
  for (double& d : inv_diag) d = (d != 0.0) ? 1.0 / d : 1.0;

  CgResult result;
  const double b_norm = norm2(b);
  std::vector<double> r;
  if (options.x0.empty()) {
    result.x.assign(n, 0.0);
    r = b;  // r = b - A·0
  } else {
    result.x = options.x0;
    r = a.multiply(result.x);
    for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  }
  if (b_norm == 0.0 && options.x0.empty()) {
    result.converged = true;
    return result;
  }
  const double target = options.tolerance * (b_norm > 0.0 ? b_norm : 1.0);
  result.residual_norm = norm2(r);
  if (result.residual_norm <= target) {
    result.converged = true;  // warm start already solves the system
    return result;
  }

  std::vector<double> z(n), p(n), ap;
  for (std::size_t i = 0; i < n; ++i) z[i] = inv_diag[i] * r[i];
  p = z;
  double rz = dot(r, z);

  for (std::size_t it = 0; it < max_iter; ++it) {
    ap = a.multiply(p);
    const double p_ap = dot(p, ap);
    MEMCIM_CHECK_MSG(p_ap > 0.0, "CG: matrix is not positive definite");
    const double alpha = rz / p_ap;
    for (std::size_t i = 0; i < n; ++i) {
      result.x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    result.iterations = it + 1;
    const double r_norm = norm2(r);
    if (r_norm <= target) {
      result.residual_norm = r_norm;
      result.converged = true;
      return result;
    }
    for (std::size_t i = 0; i < n; ++i) z[i] = inv_diag[i] * r[i];
    const double rz_next = dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  result.residual_norm = norm2(r);
  return result;
}

}  // namespace

CgResult conjugate_gradient(const SparseMatrix& a, const std::vector<double>& b,
                            const CgOptions& options) {
  CgResult result = cg_impl(a, b, options);
  if (telemetry::enabled()) {
    using telemetry::Registry;
    static telemetry::Counter& calls =
        Registry::global().counter("solver.cg.calls");
    static telemetry::Counter& iterations =
        Registry::global().counter("solver.cg.iterations");
    static telemetry::Histogram& iters_hist = Registry::global().histogram(
        "solver.cg.iterations_per_call",
        telemetry::exponential_bounds(1.0, 2.0, 12));
    static telemetry::Histogram& residual_hist = Registry::global().histogram(
        "solver.cg.residual", telemetry::exponential_bounds(1e-15, 10.0, 16));
    calls.add(1);
    iterations.add(result.iterations);
    iters_hist.record(static_cast<double>(result.iterations));
    residual_hist.record(result.residual_norm);
  }
  return result;
}

}  // namespace memcim
