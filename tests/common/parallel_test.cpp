#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <vector>

namespace memcim {
namespace {

/// Restores the default pool size when a test exits.
struct PoolGuard {
  ~PoolGuard() { set_parallel_threads(0); }
};

TEST(Parallel, EveryIndexVisitedExactlyOnce) {
  PoolGuard guard;
  set_parallel_threads(4);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> visits(n);
  parallel_for(0, n, 1, [&](std::size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(Parallel, ChunksPartitionTheRange) {
  PoolGuard guard;
  set_parallel_threads(3);
  const std::size_t n = 5000;
  std::vector<int> marks(n, 0);
  parallel_for_chunks(0, n, 64, [&](std::size_t lo, std::size_t hi) {
    EXPECT_LT(lo, hi);
    for (std::size_t i = lo; i < hi; ++i) ++marks[i];
  });
  EXPECT_EQ(std::accumulate(marks.begin(), marks.end(), 0),
            static_cast<int>(n));
}

TEST(Parallel, EmptyAndTinyRanges) {
  PoolGuard guard;
  set_parallel_threads(4);
  bool ran = false;
  parallel_for_chunks(5, 5, 1, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
  // A range below 2·grain runs inline on the caller.
  std::vector<int> v(10, 0);
  parallel_for(0, 10, 1024, [&](std::size_t i) { v[i] = 1; });
  EXPECT_EQ(std::accumulate(v.begin(), v.end(), 0), 10);
}

TEST(Parallel, NestedParallelForRunsSerially) {
  PoolGuard guard;
  set_parallel_threads(4);
  const std::size_t outer = 64, inner = 64;
  std::vector<int> cells(outer * inner, 0);
  parallel_for(0, outer, 1, [&](std::size_t i) {
    // Nested call must not deadlock; it runs inline on this worker.
    parallel_for(0, inner, 1,
                 [&, i](std::size_t j) { cells[i * inner + j] = 1; });
  });
  EXPECT_EQ(std::accumulate(cells.begin(), cells.end(), 0),
            static_cast<int>(outer * inner));
}

TEST(Parallel, SetThreadsIsObserved) {
  PoolGuard guard;
  set_parallel_threads(2);
  EXPECT_EQ(parallel_threads(), 2u);
  set_parallel_threads(5);
  EXPECT_EQ(parallel_threads(), 5u);
  set_parallel_threads(1);
  EXPECT_EQ(parallel_threads(), 1u);
}

/// Threads of this process: the entries of /proc/self/task.
std::size_t process_threads() {
  std::size_t n = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

// ctest runs each case in a fresh process, where the pool has not
// started yet; asking its size must not start it.
TEST(Parallel, ReportingThePoolSizeStartsNoThreads) {
  if (!std::filesystem::exists("/proc/self/task"))
    GTEST_SKIP() << "needs /proc/self/task";
  const std::size_t before = process_threads();
  const std::size_t reported = parallel_threads();
  EXPECT_GE(reported, 1u);
  EXPECT_EQ(process_threads(), before);
  // A region below 2·grain runs inline without starting the pool.
  parallel_for(0, 1, 1, [](std::size_t) {});
  EXPECT_EQ(process_threads(), before);
  // The size reported is the size of the pool the first region starts.
  parallel_for(0, 2, 1, [](std::size_t) {});
  EXPECT_EQ(parallel_threads(), reported);
}

TEST(Parallel, DisjointWritesAreThreadCountInvariant) {
  PoolGuard guard;
  const std::size_t n = 4096;
  const auto compute = [n] {
    std::vector<double> out(n);
    parallel_for(0, n, 16, [&](std::size_t i) {
      double acc = 0.0;
      for (std::size_t k = 1; k <= 50; ++k)
        acc += 1.0 / static_cast<double>(i * 50 + k);
      out[i] = acc;
    });
    return out;
  };
  set_parallel_threads(1);
  const auto serial = compute();
  set_parallel_threads(7);
  const auto threaded = compute();
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(serial[i], threaded[i]);
}

}  // namespace
}  // namespace memcim
