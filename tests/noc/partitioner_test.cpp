// Shard-plan invariants: full coverage, contiguity, balance, batch
// alignment — the properties the golden-equality tests lean on.
#include "arch/partitioner.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"

namespace memcim {
namespace {

void expect_covers(const ShardPlan& plan, std::size_t items,
                   std::size_t tiles) {
  ASSERT_EQ(plan.shards.size(), tiles);
  EXPECT_EQ(plan.items, items);
  std::size_t cursor = 0;
  for (std::size_t t = 0; t < tiles; ++t) {
    const Shard& s = plan.shards[t];
    EXPECT_EQ(s.tile, t);
    EXPECT_EQ(s.begin, cursor);
    EXPECT_GE(s.end, s.begin);
    cursor = s.end;
  }
  EXPECT_EQ(cursor, items);
}

std::size_t max_shard(const ShardPlan& plan) {
  std::size_t worst = 0;
  for (const Shard& s : plan.shards) worst = std::max(worst, s.size());
  return worst;
}

std::size_t active_tiles(const ShardPlan& plan) {
  std::size_t active = 0;
  for (const Shard& s : plan.shards)
    if (!s.empty()) ++active;
  return active;
}

// Batch 1 is the plain near-equal contiguous split.
TEST(Partitioner, ContiguousCoversAndBalances) {
  const ShardPlan plan = Partitioner::batch_aligned(103, 8, 1);
  expect_covers(plan, 103, 8);
  // Near-equal: sizes differ by at most one.
  std::size_t smallest = plan.items, largest = 0;
  for (const Shard& s : plan.shards) {
    smallest = std::min(smallest, s.size());
    largest = std::max(largest, s.size());
  }
  EXPECT_LE(largest - smallest, 1u);
  EXPECT_EQ(max_shard(plan), 13u);
  EXPECT_EQ(active_tiles(plan), 8u);
}

TEST(Partitioner, ContiguousWithFewerItemsThanTiles) {
  const ShardPlan plan = Partitioner::batch_aligned(3, 8, 1);
  expect_covers(plan, 3, 8);
  EXPECT_EQ(active_tiles(plan), 3u);
  EXPECT_EQ(max_shard(plan), 1u);
}

TEST(Partitioner, BatchAlignedBoundariesAreBatchMultiples) {
  const std::size_t batch = 32;
  const ShardPlan plan = Partitioner::batch_aligned(10 * 32 + 7, 4, batch);
  expect_covers(plan, 327, 4);
  for (const Shard& s : plan.shards) EXPECT_EQ(s.begin % batch, 0u);
  // 11 batches over 4 tiles → 3,3,3,2; the last shard ends ragged.
  EXPECT_EQ(plan.shards[0].size(), 3 * batch);
  EXPECT_EQ(plan.shards[3].size(), 2 * batch - 25);
}

TEST(Partitioner, BatchAlignedPreservesSlotAssignment) {
  // The farm invariant: op → slot is op mod batch, so every op's slot
  // equals its in-shard offset mod batch.
  const std::size_t batch = 16;
  const ShardPlan plan = Partitioner::batch_aligned(160, 3, batch);
  for (const Shard& s : plan.shards)
    for (std::size_t op = s.begin; op < s.end; ++op)
      EXPECT_EQ(op % batch, (op - s.begin) % batch);
}

TEST(Partitioner, SingleTilePlanIsTheWholeRange) {
  const ShardPlan plan = Partitioner::batch_aligned(1000, 1, 64);
  expect_covers(plan, 1000, 1);
  EXPECT_EQ(plan.shards[0].size(), 1000u);
}

TEST(Partitioner, RejectsDegenerateArguments) {
  EXPECT_THROW((void)Partitioner::batch_aligned(10, 0, 1), Error);
  EXPECT_THROW((void)Partitioner::batch_aligned(10, 2, 0), Error);
}

}  // namespace
}  // namespace memcim
