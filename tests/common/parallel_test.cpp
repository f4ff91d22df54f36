#include "common/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "telemetry/telemetry.h"

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
// started yet; asking its size must not start it.  Repeated in one
// process, a thread of a pool an earlier case joined can still be
// listed when `before` is read and be gone later, so the count may
// fall but never rise.
TEST(Parallel, ReportingThePoolSizeStartsNoThreads) {
  if (!std::filesystem::exists("/proc/self/task"))
    GTEST_SKIP() << "needs /proc/self/task";
  const std::size_t before = process_threads();
  const std::size_t reported = parallel_threads();
  EXPECT_GE(reported, 1u);
  EXPECT_LE(process_threads(), before);
  // A region below 2·grain runs inline without starting the pool.
  parallel_for(0, 1, 1, [](std::size_t) {});
  EXPECT_LE(process_threads(), before);
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

/// Regions the pool has counted, on it or inline (0 with telemetry off).
std::uint64_t counted_regions() {
  auto& registry = telemetry::Registry::global();
  return registry.counter("parallel.pool.jobs").value() +
         registry.counter("parallel.pool.serial_regions").value();
}

TEST(Parallel, ChunkExceptionReachesTheCaller) {
  PoolGuard guard;
  set_parallel_threads(4);
  // Four chunks of one index each.  Every body waits until all four have
  // started, so each runs on its own thread, the caller's among them;
  // the throwing body throws while the other three are still running.
  for (std::size_t thrower = 0; thrower < 4; ++thrower) {
    SCOPED_TRACE("throwing index " + std::to_string(thrower));
    std::atomic<int> started{0};
    std::atomic<int> in_flight{0};
    const auto body = [&](std::size_t i) {
      in_flight.fetch_add(1);
      started.fetch_add(1);
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (started.load() < 4 && std::chrono::steady_clock::now() < give_up)
        std::this_thread::yield();
      if (i == thrower) {
        in_flight.fetch_sub(1);
        MEMCIM_CHECK_MSG(false, "chunk " << i << " fails");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      in_flight.fetch_sub(1);
    };
    EXPECT_THROW(parallel_for(0, 4, 1, body), Error);
    EXPECT_EQ(in_flight.load(), 0);
  }
  // The pool stays usable, and the caller is out of the region again:
  // its next region goes to the pool rather than running inline.
  const std::uint64_t jobs_before =
      telemetry::Registry::global().counter("parallel.pool.jobs").value();
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> visits(n);
  parallel_for(0, n, 1, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
  if (telemetry::enabled()) {
    EXPECT_EQ(
        telemetry::Registry::global().counter("parallel.pool.jobs").value(),
        jobs_before + 1);
  }
  std::atomic<int> elsewhere{0};
  parallel_for(0, 8, 1, [&](std::size_t) {
    const std::thread::id outer = std::this_thread::get_id();
    parallel_for(0, 8, 1, [&](std::size_t) {
      if (std::this_thread::get_id() != outer) elsewhere.fetch_add(1);
    });
  });
  EXPECT_EQ(elsewhere.load(), 0);
}

// Every path of the hand-off: back-to-back regions while the workers
// are awake, regions after a pause longer than the spin window (the
// workers have parked and must be woken), resizes between regions, and
// nested regions.
TEST(Parallel, HandOffStress) {
  PoolGuard guard;
  const std::uint64_t counted_before = counted_regions();
  std::uint64_t issued = 0;
  std::size_t misses = 0;
  const auto region = [&](std::size_t n) {
    std::vector<std::atomic<int>> visits(n);
    parallel_for(0, n, 1, [&](std::size_t i) { visits[i].fetch_add(1); });
    ++issued;
    for (std::size_t i = 0; i < n; ++i) misses += visits[i].load() != 1;
  };
  for (const std::size_t threads :
       std::initializer_list<std::size_t>{4, 2, 3, 1, 4}) {
    set_parallel_threads(threads);
    for (std::size_t k = 0; k < 1000; ++k) region(1 + k % 37);
    for (int k = 0; k < 3; ++k) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      region(64);
    }
    const std::size_t outer = 16, inner = 16;
    std::vector<std::atomic<int>> cells(outer * inner);
    parallel_for(0, outer, 1, [&](std::size_t i) {
      parallel_for(0, inner, 1, [&](std::size_t j) {
        cells[i * inner + j].fetch_add(1);
      });
    });
    issued += 1 + outer;
    for (const std::atomic<int>& c : cells) misses += c.load() != 1;
  }
  EXPECT_EQ(misses, 0u);
  if (telemetry::enabled()) {
    EXPECT_EQ(counted_regions() - counted_before, issued);
  }
}

/// Sets MEMCIM_THREADS for its scope and restores the previous value.
class ThreadsEnv {
 public:
  ThreadsEnv() {
    if (const char* v = std::getenv("MEMCIM_THREADS")) saved_ = v;
  }
  ~ThreadsEnv() {
    if (saved_) setenv("MEMCIM_THREADS", saved_->c_str(), 1);
    else unsetenv("MEMCIM_THREADS");
  }
  ThreadsEnv(const ThreadsEnv&) = delete;
  ThreadsEnv& operator=(const ThreadsEnv&) = delete;
  void set(const char* value) { setenv("MEMCIM_THREADS", value, 1); }

 private:
  std::optional<std::string> saved_;
};

TEST(Parallel, RejectsAThreadCountOutsideOneToTheCeiling) {
  PoolGuard guard;  // resizes after `env` has restored the variable
  ThreadsEnv env;
  set_parallel_threads(1);
  // Threads of an earlier pool may still be leaving after their join,
  // so the count may fall; it must not rise.
  const bool can_count = std::filesystem::exists("/proc/self/task");
  const std::size_t threads_before = can_count ? process_threads() : 0;
  for (const char* bad : {"abc", "0", "-2", "4x", "", " 4", "+4", "2.0",
                          "257", "100000", "99999999999999999999999"}) {
    SCOPED_TRACE(std::string("MEMCIM_THREADS=\"") + bad + "\"");
    env.set(bad);
    EXPECT_THROW(set_parallel_threads(0), Error);
    EXPECT_EQ(parallel_threads(), 1u);
    if (can_count) {
      EXPECT_LE(process_threads(), threads_before);
    }
  }
  EXPECT_THROW(set_parallel_threads(kMaxParallelThreads + 1), Error);
  EXPECT_EQ(parallel_threads(), 1u);
  if (can_count) {
    EXPECT_LE(process_threads(), threads_before);
  }
  // The variable is read again whenever the default size is resolved.
  const std::size_t cpus = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 2);
  env.set(std::to_string(cpus).c_str());
  set_parallel_threads(0);
  EXPECT_EQ(parallel_threads(), cpus);
}

}  // namespace
}  // namespace memcim
