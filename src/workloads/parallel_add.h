// The mathematics workload of Section III.B.2: a large batch of
// independent 32-bit additions ("here we assume 10^6 parallel addition
// operations").  Besides the closed-form spec used by the Table 2
// evaluator, this module runs the batch *functionally* on a farm of
// CRS TC-adders (logic/packed_adder.h) so results, pulse counts and
// switching energy come from the device model.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "device/crs.h"
#include "logic/packed_adder.h"

namespace memcim {

struct ParallelAddParams {
  std::size_t operations = 1024;  ///< batch size (paper: 10^6)
  std::size_t width = 32;         ///< operand width in bits
  std::size_t adders = 256;       ///< physical adder farm size
  /// Called once on the freshly built farm before any addition runs —
  /// the fault-campaign hook (src/fault/) pins stuck cells here.  The
  /// indirection keeps workloads independent of the fault subsystem.
  std::function<void(PackedTcAdderFarm&)> farm_hook;
  /// Record ParallelAddResult::op_energy — the exact per-op doubles a
  /// sharded run re-folds in global op order so its totals are bitwise
  /// equal to a serial golden replay of the same shard plan.
  bool record_per_op = false;
};

struct ParallelAddResult {
  std::vector<std::uint64_t> sums;
  std::uint64_t total_pulses = 0;
  Energy total_energy{0.0};
  /// Wall latency: batches run back-to-back, adders within a batch in
  /// parallel → ceil(ops/adders) · (4N+5) pulses.
  Time latency{0.0};
  std::uint64_t mismatches = 0;  ///< vs the golden CPU adds (must be 0)
  /// Cell state transitions of the whole run (endurance/energy window
  /// tally; identical across shardings).
  std::uint64_t transitions = 0;
  /// Per-op switching energy in joules, exactly as accumulated into
  /// total_energy; filled only when ParallelAddParams::record_per_op.
  std::vector<double> op_energy;
};

/// A batch's operand pairs, in op order.
struct AddOperands {
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> b;
};

/// Draw `params.operations` operand pairs in op order, a then b per op,
/// each uniform on [0, 2^width − 1].  run_parallel_add and
/// sharded_parallel_add both draw through it, so they consume the same
/// stream.
[[nodiscard]] AddOperands draw_add_operands(const ParallelAddParams& params,
                                            Rng& rng);

/// Draw `operations` random operand pairs (draw_add_operands) and add
/// them on the CRS adder farm, verifying every result against native
/// addition.
[[nodiscard]] ParallelAddResult run_parallel_add(const ParallelAddParams& params,
                                                 const CrsCellParams& cell,
                                                 Rng& rng);

/// Run a caller-supplied operand batch (sizes must equal
/// params.operations; operands wider than params.width throw Error) on
/// a fresh farm.  This is the sharding seam: the
/// multi-tile layer draws all operands once in global op order, slices
/// them per shard, and calls this on every tile — each tile builds the
/// full `params.adders` farm (hardware scales with tiles) and applies
/// the same farm_hook, so a shard whose begin is batch-aligned
/// reproduces the exact per-op pulse schedules of a serial golden
/// replay of the same plan.
[[nodiscard]] ParallelAddResult run_parallel_add_ops(
    const ParallelAddParams& params, const CrsCellParams& cell,
    const std::vector<std::uint64_t>& op_a,
    const std::vector<std::uint64_t>& op_b);

}  // namespace memcim
