// Synthetic access streams the cache and cluster tests replay.  The
// benches replay the sorted-index algorithm's real address stream
// (workloads/dna.h) instead.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/rng.h"
#include "conv/memory_trace.h"

namespace memcim {

/// Sequential scan of `bytes` bytes in `stride`-byte steps from `base`.
[[nodiscard]] MemoryTrace sequential_trace(std::uint64_t base,
                                           std::uint64_t bytes,
                                           std::uint64_t stride = 8);

/// Uniformly random accesses across a `bytes`-sized region.
[[nodiscard]] MemoryTrace random_trace(std::uint64_t base, std::uint64_t bytes,
                                       std::size_t count, Rng& rng);

}  // namespace memcim
