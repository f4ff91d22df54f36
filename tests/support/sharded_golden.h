// Serial golden for sharded_parallel_add (src/workloads/sharded.h).
// TC-adder energy is history dependent, so the golden of a sharded run
// is the identical shard plan executed one shard at a time on freshly
// built farms.  Its books are folded here in global op order, without
// the production merge, so a fold bug there cannot show on both sides
// of a comparison.
#pragma once

#include <cstdint>
#include <vector>

#include "workloads/sharded.h"

namespace memcim {

/// Run every shard of `plan` serially through run_parallel_add_ops and
/// fold sums, per-op energies, pulses, mismatches, transitions, latency
/// and total energy in global op order.  sharded_parallel_add must
/// match it bitwise in every book.
[[nodiscard]] ShardedAddResult replay_parallel_add_plan(
    const ShardPlan& plan, const ParallelAddParams& params,
    const CrsCellParams& cell, const std::vector<std::uint64_t>& op_a,
    const std::vector<std::uint64_t>& op_b);

}  // namespace memcim
