#include "common/sparse.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "support/dense_ops.h"

namespace memcim {
namespace {

TEST(Sparse, DuplicateTripletsAreSummed) {
  SparseMatrix a(2, 2);
  a.add(0, 0, 1.0);
  a.add(0, 0, 2.5);
  a.add(1, 1, 4.0);
  a.finalize();
  EXPECT_EQ(a.values().size(), 2u);
  const auto d = a.diagonal();
  EXPECT_DOUBLE_EQ(d[0], 3.5);
  EXPECT_DOUBLE_EQ(d[1], 4.0);
}

TEST(Sparse, MultiplyMatchesDense) {
  Rng rng(11);
  const std::size_t n = 20;
  SparseMatrix s(n, n);
  for (int k = 0; k < 80; ++k) {
    const auto r = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    const auto c = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    s.add(r, c, rng.uniform(-2.0, 2.0));
  }
  s.finalize();
  const Matrix d = s.to_dense();
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  const auto ys = s.multiply(x);
  const auto yd = multiply(d, x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ys[i], yd[i], 1e-12);
}

TEST(Sparse, EmptyRowsHandled) {
  SparseMatrix a(3, 3);
  a.add(0, 0, 2.0);
  a.add(2, 2, 5.0);
  a.finalize();
  const auto y = a.multiply({1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 5.0);
}

TEST(Sparse, RequiresFinalizeBeforeUse) {
  SparseMatrix a(2, 2);
  a.add(0, 0, 1.0);
  EXPECT_THROW((void)a.multiply({1.0, 1.0}), Error);
  EXPECT_THROW((void)a.values(), Error);
}

TEST(Sparse, OutOfRangeAddThrows) {
  SparseMatrix a(2, 2);
  EXPECT_THROW(a.add(2, 0, 1.0), Error);
  EXPECT_THROW(a.add(0, 5, 1.0), Error);
}

// Build the graph Laplacian of a path with both ends tied to ground —
// SPD, and structurally identical to crossbar nodal matrices.
SparseMatrix grounded_path_laplacian(std::size_t n, double g) {
  SparseMatrix a(n, n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    a.add(i, i, g);
    a.add(i + 1, i + 1, g);
    a.add(i, i + 1, -g);
    a.add(i + 1, i, -g);
  }
  a.add(0, 0, g);          // tie to ground
  a.add(n - 1, n - 1, g);  // tie to ground
  a.finalize();
  return a;
}

TEST(Sparse, CgMatchesLuOnSpdSystem) {
  const std::size_t n = 50;
  const auto a = grounded_path_laplacian(n, 1e-3);
  std::vector<double> b(n, 0.0);
  b[0] = 1e-3;  // inject current at node 0
  const auto x_lu = solve_dense(a.to_dense(), b);
  const auto cg = conjugate_gradient(a, b);
  ASSERT_TRUE(cg.converged);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(cg.x[i], x_lu[i], 1e-6);
}

TEST(Sparse, CgZeroRhsIsZeroSolution) {
  const auto a = grounded_path_laplacian(10, 1.0);
  const auto cg = conjugate_gradient(a, std::vector<double>(10, 0.0));
  EXPECT_TRUE(cg.converged);
  EXPECT_EQ(cg.iterations, 0u);
  for (double v : cg.x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Sparse, CgIterationCapRespected) {
  const auto a = grounded_path_laplacian(100, 1.0);
  std::vector<double> b(100, 1.0);
  CgOptions opts;
  opts.max_iterations = 2;
  opts.tolerance = 1e-15;
  const auto cg = conjugate_gradient(a, b, opts);
  EXPECT_FALSE(cg.converged);
  EXPECT_EQ(cg.iterations, 2u);
  EXPECT_GT(cg.residual_norm, 0.0);
}

// Numeric-refresh protocol: assemble the pattern once, then rewrite
// values in place.  The refresh must reproduce a from-scratch assembly
// bit for bit when the per-slot accumulation order matches.
TEST(Sparse, NumericRefreshIsBitwiseIdenticalToFreshAssembly) {
  // Awkward values whose sums depend on rounding order — if refresh
  // accumulated in a different order than assembly, bits would differ.
  const double c0 = 1.0 / 3.0, c1 = 1e-17, ga = 0.1, gb = 2.0 / 7.0;

  // Fresh assembly: constants first, then "junction" stamps.
  SparseMatrix fresh(3, 3);
  fresh.add(0, 0, c0);
  fresh.add(2, 2, c1);
  fresh.add(0, 0, ga);
  fresh.add(0, 1, -ga);
  fresh.add(1, 0, -ga);
  fresh.add(1, 1, ga);
  fresh.add(1, 1, gb);
  fresh.add(2, 2, gb);
  fresh.finalize();

  // Structure-reuse path: same pattern with junction stamps structural
  // (zero), then a numeric refresh per "sweep".
  SparseMatrix reused(3, 3);
  reused.add(0, 0, c0);
  reused.add(2, 2, c1);
  reused.add(0, 0, 0.0);
  reused.add(0, 1, 0.0);
  reused.add(1, 0, 0.0);
  reused.add(1, 1, 0.0);
  reused.add(1, 1, 0.0);
  reused.add(2, 2, 0.0);
  reused.finalize();
  const std::vector<double> base = reused.values();

  for (int sweep = 0; sweep < 3; ++sweep) {
    reused.begin_update(base);
    reused.add_slot(reused.slot(0, 0), ga);
    reused.add_slot(reused.slot(0, 1), -ga);
    reused.add_slot(reused.slot(1, 0), -ga);
    reused.add_slot(reused.slot(1, 1), ga);
    reused.add_slot(reused.slot(1, 1), gb);
    reused.add_slot(reused.slot(2, 2), gb);
    ASSERT_EQ(fresh.values().size(), reused.values().size());
    const auto& vf = fresh.values();
    const auto& vr = reused.values();
    for (std::size_t s = 0; s < vf.size(); ++s)
      EXPECT_EQ(vf[s], vr[s]) << "slot " << s << " sweep " << sweep;
  }
}

TEST(Sparse, SlotResolutionAndIndexedRefresh) {
  SparseMatrix a(2, 3);
  a.add(0, 2, 1.0);
  a.add(1, 0, 2.0);
  a.add(1, 1, 3.0);
  a.finalize();
  const std::size_t s02 = a.slot(0, 2);
  const std::size_t s11 = a.slot(1, 1);
  a.add_slot(s02, 4.0);
  a.add_slot(s11, -1.0);
  EXPECT_DOUBLE_EQ(a.to_dense()(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(a.to_dense()(1, 1), 2.0);
  // A base refresh resets every slot; slots stay valid across it.
  a.begin_update({7.0, 2.0, 3.0});
  a.add_slot(a.slot(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(a.values()[s02], 7.0);
  EXPECT_DOUBLE_EQ(a.to_dense()(1, 0), 2.5);
}

TEST(Sparse, RefreshApiErrors) {
  SparseMatrix a(2, 2);
  a.add(0, 0, 1.0);
  EXPECT_THROW(a.begin_update({1.0}), Error);  // not finalized yet
  EXPECT_THROW((void)a.slot(0, 0), Error);
  a.finalize();
  EXPECT_THROW((void)a.slot(0, 1), Error);    // not a structural nonzero
  EXPECT_THROW((void)a.slot(1, 0), Error);
  EXPECT_THROW(a.add_slot(99, 1.0), Error);
  EXPECT_THROW(a.begin_update({1.0, 2.0}), Error);  // base size mismatch
  a.begin_update({0.0});
  EXPECT_DOUBLE_EQ(a.values()[0], 0.0);
}

TEST(Sparse, RefreshedMatrixMultipliesCorrectly) {
  const auto a_fresh = grounded_path_laplacian(30, 2.0);
  SparseMatrix a(30, 30);
  // Same structure, garbage values.
  for (std::size_t i = 0; i + 1 < 30; ++i) {
    a.add(i, i, 9.0);
    a.add(i + 1, i + 1, 9.0);
    a.add(i, i + 1, 9.0);
    a.add(i + 1, i, 9.0);
  }
  a.add(0, 0, 9.0);
  a.add(29, 29, 9.0);
  a.finalize();
  // Refresh to the Laplacian values.
  a.begin_update(std::vector<double>(a.values().size(), 0.0));
  for (std::size_t i = 0; i + 1 < 30; ++i) {
    a.add_slot(a.slot(i, i), 2.0);
    a.add_slot(a.slot(i + 1, i + 1), 2.0);
    a.add_slot(a.slot(i, i + 1), -2.0);
    a.add_slot(a.slot(i + 1, i), -2.0);
  }
  a.add_slot(a.slot(0, 0), 2.0);
  a.add_slot(a.slot(29, 29), 2.0);
  std::vector<double> x(30);
  for (std::size_t i = 0; i < 30; ++i)
    x[i] = 0.1 * static_cast<double>(i) - 1.0;
  const auto y_fresh = a_fresh.multiply(x);
  const auto y_refreshed = a.multiply(x);
  for (std::size_t i = 0; i < 30; ++i)
    EXPECT_DOUBLE_EQ(y_fresh[i], y_refreshed[i]);
}

TEST(Sparse, CgWarmStartFromExactSolutionConvergesInstantly) {
  const std::size_t n = 200;
  const auto a = grounded_path_laplacian(n, 1e-3);
  std::vector<double> b(n, 0.0);
  b[0] = 1e-3;
  const auto cold = conjugate_gradient(a, b);
  ASSERT_TRUE(cold.converged);
  EXPECT_GT(cold.iterations, 0u);
  CgOptions warm_opts;
  warm_opts.x0 = cold.x;
  const auto warm = conjugate_gradient(a, b, warm_opts);
  EXPECT_TRUE(warm.converged);
  // Seeded with the answer: no iterations (or at most a touch-up).
  EXPECT_LE(warm.iterations, 2u);
}

TEST(Sparse, CgWarmStartSizeMismatchThrows) {
  const auto a = grounded_path_laplacian(10, 1.0);
  CgOptions opts;
  opts.x0.assign(7, 0.0);
  EXPECT_THROW((void)conjugate_gradient(a, std::vector<double>(10, 1.0), opts),
               Error);
}

TEST(Sparse, CgScalesToLargerSystems) {
  const std::size_t n = 2000;
  const auto a = grounded_path_laplacian(n, 5e-4);
  std::vector<double> b(n, 0.0);
  b[n / 2] = 1e-3;
  const auto cg = conjugate_gradient(a, b);
  EXPECT_TRUE(cg.converged);
  // Residual check: ‖b − A·x‖ small relative to ‖b‖.
  const auto ax = a.multiply(cg.x);
  double r2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) r2 += (b[i] - ax[i]) * (b[i] - ax[i]);
  EXPECT_LT(std::sqrt(r2), 1e-10);
}

}  // namespace
}  // namespace memcim
