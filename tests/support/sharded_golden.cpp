#include "support/sharded_golden.h"

#include <cstddef>

#include "common/error.h"

namespace memcim {

ShardedAddResult replay_parallel_add_plan(
    const ShardPlan& plan, const ParallelAddParams& params,
    const CrsCellParams& cell, const std::vector<std::uint64_t>& op_a,
    const std::vector<std::uint64_t>& op_b) {
  MEMCIM_CHECK(op_a.size() == plan.items && op_b.size() == plan.items);
  ShardedAddResult out;
  out.plan = plan;
  out.shard_transitions.assign(plan.shards.size(), 0);
  ParallelAddResult& merged = out.merged;
  // Shards are contiguous and ascending, so walking them in plan order
  // visits the ops in global order.
  std::size_t next_op = 0;
  for (const Shard& s : plan.shards) {
    MEMCIM_CHECK(s.begin == next_op);
    if (s.empty()) continue;
    ParallelAddParams shard_params = params;
    shard_params.operations = s.size();
    shard_params.record_per_op = true;
    const auto begin = static_cast<std::ptrdiff_t>(s.begin);
    const auto end = static_cast<std::ptrdiff_t>(s.end);
    const std::vector<std::uint64_t> a(op_a.begin() + begin,
                                       op_a.begin() + end);
    const std::vector<std::uint64_t> b(op_b.begin() + begin,
                                       op_b.begin() + end);
    const ParallelAddResult r = run_parallel_add_ops(shard_params, cell, a, b);
    MEMCIM_CHECK(r.sums.size() == s.size() && r.op_energy.size() == s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
      merged.sums.push_back(r.sums[i]);
      merged.op_energy.push_back(r.op_energy[i]);
      merged.total_energy += Energy(r.op_energy[i]);
    }
    merged.total_pulses += r.total_pulses;
    merged.mismatches += r.mismatches;
    merged.transitions += r.transitions;
    merged.latency += r.latency;
    out.shard_transitions[s.tile] = r.transitions;
    next_op = s.end;
  }
  MEMCIM_CHECK(next_op == plan.items);
  out.run.compute_energy = merged.total_energy;
  return out;
}

}  // namespace memcim
