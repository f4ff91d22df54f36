#include "arch/partitioner.h"

#include <algorithm>

#include "common/error.h"

namespace memcim {

namespace {

/// Block-distribute `units` over `tiles`: the first `units % tiles`
/// shards get one extra unit.  Returns per-tile unit counts.
std::vector<std::size_t> block_counts(std::size_t units, std::size_t tiles) {
  const std::size_t base = units / tiles;
  const std::size_t extra = units % tiles;
  std::vector<std::size_t> counts(tiles, base);
  for (std::size_t t = 0; t < extra; ++t) ++counts[t];
  return counts;
}

}  // namespace

ShardPlan Partitioner::batch_aligned(std::size_t items, std::size_t tiles,
                                     std::size_t batch) {
  MEMCIM_CHECK_MSG(tiles > 0, "plan needs at least one tile");
  MEMCIM_CHECK_MSG(batch > 0, "batch size must be positive");
  const std::size_t batches = (items + batch - 1) / batch;
  ShardPlan plan;
  plan.items = items;
  plan.shards.reserve(tiles);
  const std::vector<std::size_t> counts = block_counts(batches, tiles);
  std::size_t batch_cursor = 0;
  for (std::size_t t = 0; t < tiles; ++t) {
    const std::size_t begin = std::min(batch_cursor * batch, items);
    batch_cursor += counts[t];
    const std::size_t end = std::min(batch_cursor * batch, items);
    plan.shards.push_back({t, begin, end});
  }
  MEMCIM_CHECK(plan.shards.back().end == items);
  return plan;
}

}  // namespace memcim
