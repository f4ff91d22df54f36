#include "conv/cluster.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "support/memory_traces.h"

namespace memcim {
namespace {

TEST(Cluster, SingleCoreTimingArithmetic) {
  // 1 miss + 7 hits per line over 2 lines (16 accesses, stride 8).
  std::vector<MemoryTrace> traces{sequential_trace(0, 128, 8)};
  ClusterTiming timing;
  const ClusterRunResult r = run_cluster(traces, CacheConfig{}, timing);
  EXPECT_EQ(r.cache.misses, 2u);
  EXPECT_EQ(r.cache.hits, 14u);
  // cycles = 16 compute + 2·165 miss + 14·1 hit = 360.
  EXPECT_DOUBLE_EQ(r.core_cycles[0], 360.0);
  EXPECT_NEAR(r.wall_time.value(), 360e-9, 1e-15);
}

TEST(Cluster, DisjointStreamsContendForSharedCache) {
  // 32 cores each scanning a private 4 kB region: combined working set
  // 128 kB >> 8 kB shared L1 — with a shared cache the per-core hit
  // rate is far below the private-cache ideal... unless streams are
  // line-sequential (spatial hits survive interleaving).  Use random
  // accesses to expose capacity contention.
  Rng rng(9);
  std::vector<MemoryTrace> shared_traces;
  std::vector<MemoryTrace> solo_trace;
  for (int core = 0; core < 32; ++core)
    shared_traces.push_back(random_trace(
        static_cast<std::uint64_t>(core) << 20, 4 << 10, 500, rng));
  Rng rng2(9);
  solo_trace.push_back(random_trace(0, 4 << 10, 500, rng2));

  const auto shared = run_cluster(shared_traces, CacheConfig{}, {});
  const auto solo = run_cluster(solo_trace, CacheConfig{}, {});
  EXPECT_GT(solo.hit_rate(), 0.6);
  EXPECT_LT(shared.hit_rate(), solo.hit_rate() - 0.3);
}

TEST(Cluster, WallTimeIsSlowestCore) {
  std::vector<MemoryTrace> traces(2);
  traces[0] = sequential_trace(0, 64, 8);        // 8 accesses
  traces[1] = sequential_trace(1 << 20, 512, 8); // 64 accesses
  const auto r = run_cluster(traces, CacheConfig{}, {});
  EXPECT_GT(r.core_cycles[1], r.core_cycles[0]);
  EXPECT_NEAR(r.wall_time.value(), r.core_cycles[1] * 1e-9, 1e-15);
}

TEST(Cluster, EmptyClusterRejected) {
  EXPECT_THROW((void)run_cluster({}, CacheConfig{}, {}), Error);
}

}  // namespace
}  // namespace memcim
