#include "support/memory_traces.h"

#include "common/error.h"

namespace memcim {

MemoryTrace sequential_trace(std::uint64_t base, std::uint64_t bytes,
                             std::uint64_t stride) {
  MEMCIM_CHECK(stride > 0);
  MemoryTrace trace;
  for (std::uint64_t offset = 0; offset < bytes; offset += stride)
    trace.record(base + offset);
  return trace;
}

MemoryTrace random_trace(std::uint64_t base, std::uint64_t bytes,
                         std::size_t count, Rng& rng) {
  MEMCIM_CHECK(bytes > 0);
  MemoryTrace trace;
  for (std::size_t i = 0; i < count; ++i)
    trace.record(base + static_cast<std::uint64_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(bytes - 1))));
  return trace;
}

}  // namespace memcim
