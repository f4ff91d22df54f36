// Program cache: hit/miss accounting, key separation across workload,
// shape and fabric signature, and a builder that runs exactly once per
// key even under concurrent lookups.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "isa/cache.h"
#include "logic/gates.h"

namespace memcim::isa {
namespace {

CimProgram build_and_gate() {
  return record_program(2, [](Fabric& f, const std::vector<Reg>& in) {
    return gate_and(f, in[0], in[1]);
  });
}

ProgramKey key_of(const std::string& workload, std::uint64_t shape,
                  const CompileOptions& options) {
  ProgramKey key;
  key.workload = workload;
  key.shape = shape;
  key.fabric_sig = fabric_signature(options);
  return key;
}

TEST(ProgramCache, MissCompilesThenHitsReturnTheSameArtifact) {
  ProgramCache cache;
  const CompileOptions options;
  const ProgramKey key = key_of("test.and", 2, options);

  int builds = 0;
  const auto builder = [&] {
    ++builds;
    return build_and_gate();
  };
  const auto first = cache.get_or_compile(key, builder, options);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), 1u);

  const auto second = cache.get_or_compile(key, builder, options);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(first.get(), second.get());  // literally the same artifact

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(ProgramCache, EveryKeyComponentSeparatesArtifacts) {
  ProgramCache cache;
  CompileOptions options;
  const auto builder = [] { return build_and_gate(); };

  (void)cache.get_or_compile(key_of("test.and", 2, options), builder, options);
  // Different workload name.
  (void)cache.get_or_compile(key_of("test.or", 2, options), builder, options);
  // Different shape.
  (void)cache.get_or_compile(key_of("test.and", 3, options), builder, options);
  // Different fabric quanta.
  CompileOptions crs = options;
  crs.imply_step_cost = 2;
  EXPECT_NE(fabric_signature(options), fabric_signature(crs));
  (void)cache.get_or_compile(key_of("test.and", 2, crs), builder, crs);
  // Different cost-model quanta.
  CompileOptions hot = options;
  hot.cost.e_write = hot.cost.e_write * 2.0;
  EXPECT_NE(fabric_signature(options), fabric_signature(hot));
  (void)cache.get_or_compile(key_of("test.and", 2, hot), builder, hot);

  EXPECT_EQ(cache.size(), 5u);
  EXPECT_EQ(cache.misses(), 5u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(ProgramCache, ConcurrentLookupsBuildExactlyOnce) {
  ProgramCache cache;
  const CompileOptions options;
  const ProgramKey key = key_of("test.concurrent", 2, options);

  std::atomic<int> builds{0};
  const auto builder = [&] {
    builds.fetch_add(1, std::memory_order_relaxed);
    return build_and_gate();
  };

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const CompiledProgram>> results(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i)
      threads.emplace_back([&, i] {
        results[static_cast<std::size_t>(i)] =
            cache.get_or_compile(key, builder, options);
      });
    for (std::thread& t : threads) t.join();
  }

  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(kThreads - 1));
  for (const auto& r : results) EXPECT_EQ(r.get(), results[0].get());
}

TEST(ProgramCache, GlobalCacheIsAProcessSingleton) {
  EXPECT_EQ(&ProgramCache::global(), &ProgramCache::global());
}

}  // namespace
}  // namespace memcim::isa
