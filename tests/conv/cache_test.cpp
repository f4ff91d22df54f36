#include "conv/cache.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "support/memory_traces.h"

namespace memcim {
namespace {

CacheConfig tiny() {
  CacheConfig cfg;
  cfg.size_bytes = 512;
  cfg.line_bytes = 64;
  cfg.ways = 2;  // 4 sets
  return cfg;
}

TEST(Cache, GeometryDerivation) {
  SetAssociativeCache c(tiny());
  EXPECT_EQ(c.sets(), 4u);
  const SetAssociativeCache paper{CacheConfig{}};  // 8 kB / 64 B / 4-way
  EXPECT_EQ(paper.sets(), 32u);
}

TEST(Cache, ColdMissThenHit) {
  SetAssociativeCache c(tiny());
  EXPECT_FALSE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x1038));  // same 64 B line
  EXPECT_FALSE(c.access(0x1040));  // next line
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LruEvictionOrder) {
  SetAssociativeCache c(tiny());  // 2 ways
  // Three lines mapping to the same set (set stride = 4 lines = 256 B).
  const std::uint64_t a = 0x0000, b = 0x0100, d = 0x0200;
  (void)c.access(a);
  (void)c.access(b);
  (void)c.access(a);  // a is now MRU
  (void)c.access(d);  // evicts b (LRU)
  EXPECT_TRUE(c.contains(a));
  EXPECT_FALSE(c.contains(b));
  EXPECT_TRUE(c.contains(d));
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(Cache, SequentialScanHitsWithinLines) {
  SetAssociativeCache c(CacheConfig{});
  c.run(sequential_trace(0, 4096, 8));  // 512 accesses, 64 lines
  // 8-byte stride in 64-byte lines: 1 miss + 7 hits per line.
  EXPECT_EQ(c.stats().misses, 64u);
  EXPECT_EQ(c.stats().hits, 448u);
  EXPECT_NEAR(c.stats().hit_rate(), 7.0 / 8.0, 1e-12);
}

TEST(Cache, WorkingSetLargerThanCacheThrashes) {
  SetAssociativeCache c(CacheConfig{});  // 8 kB
  Rng rng(5);
  // Random accesses over 1 MB: hit rate collapses toward line reuse only.
  c.run(random_trace(0, 1 << 20, 20'000, rng));
  EXPECT_LT(c.stats().hit_rate(), 0.05);
}

TEST(Cache, WorkingSetInsideCacheConverges) {
  SetAssociativeCache c(CacheConfig{});  // 8 kB
  Rng rng(6);
  // Random accesses within 4 kB: after warm-up everything hits.
  c.run(random_trace(0, 4 << 10, 10'000, rng));
  EXPECT_GT(c.stats().hit_rate(), 0.95);
}

TEST(Cache, ConfigValidation) {
  CacheConfig bad;
  bad.line_bytes = 48;  // not a power of two
  EXPECT_THROW(SetAssociativeCache{bad}, Error);
  bad = CacheConfig{};
  bad.ways = 0;
  EXPECT_THROW(SetAssociativeCache{bad}, Error);
  bad = CacheConfig{};
  bad.size_bytes = 96;  // smaller than line*ways
  EXPECT_THROW(SetAssociativeCache{bad}, Error);
}

TEST(Trace, Generators) {
  const MemoryTrace seq = sequential_trace(100, 64, 16);
  ASSERT_EQ(seq.size(), 4u);
  EXPECT_EQ(seq.accesses()[3].address, 148u);
  Rng rng(2);
  const MemoryTrace rnd = random_trace(1000, 50, 10, rng);
  for (const auto& a : rnd.accesses()) {
    EXPECT_GE(a.address, 1000u);
    EXPECT_LT(a.address, 1050u);
  }
  EXPECT_THROW((void)sequential_trace(0, 10, 0), Error);
}

}  // namespace
}  // namespace memcim
