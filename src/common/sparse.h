// Sparse linear algebra: CSR matrix assembled from triplets and a
// Jacobi-preconditioned conjugate-gradient solver.
//
// Crossbar nodal conductance matrices are symmetric positive definite
// (every node has a conductive path to a driven terminal), which makes
// CG the natural large-array backend; dense LU remains the reference.
//
// Nonlinear solves re-stamp the same nodal pattern every sweep, so the
// matrix supports a symbolic-once / numeric-refresh protocol: assemble
// and finalize() once, resolve each stamp's slot index once with
// slot(), then per sweep call begin_update(base) and accumulate values
// in place with add_slot().  No re-sort, no reallocation.
#pragma once

#include <cstddef>
#include <vector>

#include "common/matrix.h"

namespace memcim {

/// Compressed-sparse-row matrix built incrementally from (row, col, value)
/// triplets; duplicate coordinates are summed, which matches the way
/// nodal-analysis stamps accumulate.
class SparseMatrix {
 public:
  SparseMatrix(std::size_t rows, std::size_t cols);

  /// Accumulate `value` into entry (r, c).
  void add(std::size_t r, std::size_t c, double value);

  /// Finalize triplets into CSR form.  Must be called before multiply();
  /// further add() calls require a new finalize().  Duplicates are
  /// summed in insertion order (stable), so repeat assemblies of the
  /// same stamp sequence are bitwise reproducible.
  void finalize();

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool finalized() const { return finalized_; }

  // --- Numeric refresh (structure reuse) ----------------------------------
  // All of these require finalize() to have been called; the sparsity
  // pattern is frozen and only the stored values change.

  /// Reset stored values to `base` (e.g. the constant stamps of a nodal
  /// matrix, captured once via values()).  Size must equal values().size().
  void begin_update(const std::vector<double>& base);

  /// Index of structural nonzero (r, c) into values(); resolve once,
  /// then refresh with add_slot() at O(1).  Throws if the coordinate is
  /// not part of the pattern.
  [[nodiscard]] std::size_t slot(std::size_t r, std::size_t c) const;

  void add_slot(std::size_t s, double value);

  /// CSR value array (requires finalize()); index with slot().
  [[nodiscard]] const std::vector<double>& values() const;

  /// y = A·x (requires finalize()).  Row blocks are evaluated on the
  /// global thread pool; per-row accumulation order is fixed, so the
  /// result is bitwise identical at any thread count.
  [[nodiscard]] std::vector<double> multiply(const std::vector<double>& x) const;

  /// Diagonal of the matrix (requires finalize()).
  [[nodiscard]] std::vector<double> diagonal() const;

  /// Densify — for testing and for small systems handed to LU.
  [[nodiscard]] Matrix to_dense() const;

 private:
  struct Triplet {
    std::size_t r, c;
    double v;
  };

  std::size_t rows_, cols_;
  bool finalized_ = false;
  std::vector<Triplet> triplets_;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

/// Outcome of an iterative solve.
struct CgResult {
  std::vector<double> x;
  double residual_norm = 0.0;  ///< ‖b − A·x‖₂ at exit.
  std::size_t iterations = 0;
  bool converged = false;
};

/// Options for conjugate_gradient().
struct CgOptions {
  double tolerance = 1e-10;        ///< relative to ‖b‖₂.
  std::size_t max_iterations = 0;  ///< 0 → 10·n.
  /// Warm-start guess (empty → zeros).  Nonlinear sweeps and transient
  /// steps converge in a handful of iterations when seeded with the
  /// previous solution.
  std::vector<double> x0;
};

/// Jacobi-preconditioned CG on a finalized SPD matrix.
[[nodiscard]] CgResult conjugate_gradient(const SparseMatrix& a,
                                          const std::vector<double>& b,
                                          const CgOptions& options = {});

}  // namespace memcim
