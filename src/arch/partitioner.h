// Workload partitioner for the multi-tile fabric: turns "N items over
// T tiles" into contiguous shards whose merge order is fixed, so a
// sharded run can reproduce a single-tile golden run item for item.
//
// batch_aligned distributes whole batches near-equally (the classic
// block distribution, remainder over the leading shards), so every
// shard boundary is a multiple of `batch`.  The TC-adder farm needs
// this: the op → adder-slot mapping is op mod adders, so only
// batch-aligned shards preserve each op's physical slot (and therefore
// its exact pulse schedule) when every tile instantiates the same farm.
// With batch 1 it is the plain near-equal contiguous split.
//
// Shards are emitted for every tile, possibly empty, in tile order;
// merging per-shard results back in that order reconstructs global item
// order because shards are contiguous and ascending.
#pragma once

#include <cstddef>
#include <vector>

namespace memcim {

/// One tile's contiguous slice [begin, end) of the global item range.
struct Shard {
  std::size_t tile = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  [[nodiscard]] std::size_t size() const { return end - begin; }
  [[nodiscard]] bool empty() const { return begin == end; }
};

struct ShardPlan {
  std::size_t items = 0;
  std::vector<Shard> shards;  ///< one per tile, ascending, contiguous
};

class Partitioner {
 public:
  /// Contiguous split whose boundaries are multiples of `batch` (the
  /// final boundary is `items` itself, which may be ragged).  Whole
  /// batches are distributed near-equally.
  [[nodiscard]] static ShardPlan batch_aligned(std::size_t items,
                                               std::size_t tiles,
                                               std::size_t batch);
};

}  // namespace memcim
