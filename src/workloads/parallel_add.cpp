#include "workloads/parallel_add.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "logic/packed_adder.h"
#include "telemetry/telemetry.h"

namespace memcim {

namespace {

/// Record the workload tallies once, from the serial reduction totals,
/// so they are bitwise identical at any MEMCIM_THREADS.
void record_workload(const ParallelAddParams& params,
                     const ParallelAddResult& result, std::size_t batches) {
  if (!telemetry::enabled()) return;
  using telemetry::Registry;
  static telemetry::Counter& ops =
      Registry::global().counter("workload.parallel_add.ops");
  static telemetry::Counter& batches_c =
      Registry::global().counter("workload.parallel_add.batches");
  static telemetry::Counter& pulses =
      Registry::global().counter("workload.parallel_add.pulses");
  static telemetry::Counter& mismatches =
      Registry::global().counter("workload.parallel_add.mismatches");
  ops.add(params.operations);
  batches_c.add(batches);
  pulses.add(result.total_pulses);
  mismatches.add(result.mismatches);
}

}  // namespace

AddOperands draw_add_operands(const ParallelAddParams& params, Rng& rng) {
  MEMCIM_CHECK(params.width >= 1 && params.width <= 63);
  const auto max_operand =
      static_cast<std::int64_t>((std::uint64_t{1} << params.width) - 1);
  AddOperands ops;
  ops.a.reserve(params.operations);
  ops.b.reserve(params.operations);
  for (std::size_t op = 0; op < params.operations; ++op) {
    ops.a.push_back(static_cast<std::uint64_t>(rng.uniform_int(0, max_operand)));
    ops.b.push_back(static_cast<std::uint64_t>(rng.uniform_int(0, max_operand)));
  }
  return ops;
}

ParallelAddResult run_parallel_add(const ParallelAddParams& params,
                                   const CrsCellParams& cell, Rng& rng) {
  // Every operand is drawn up front, in operation order, so the RNG
  // stream (and therefore the result) is independent of how the batch
  // fan-out is scheduled.
  const AddOperands ops = draw_add_operands(params, rng);
  return run_parallel_add_ops(params, cell, ops.a, ops.b);
}

ParallelAddResult run_parallel_add_ops(const ParallelAddParams& params,
                                       const CrsCellParams& cell,
                                       const std::vector<std::uint64_t>& op_a,
                                       const std::vector<std::uint64_t>& op_b) {
  MEMCIM_CHECK(params.operations > 0 && params.adders > 0);
  MEMCIM_CHECK(params.width >= 1 && params.width <= 63);
  MEMCIM_CHECK_MSG(op_a.size() == params.operations &&
                       op_b.size() == params.operations,
                   "operand batch sizes must equal params.operations");
  static telemetry::SpanSite span_site("workload.parallel_add");
  telemetry::Span span(span_site);

  const std::uint64_t max_operand =
      (std::uint64_t{1} << params.width) - 1;

  // One physical adder per farm slot, reused across batches: op k runs
  // on slot k % adders, and the ops of one batch run concurrently —
  // exactly the in-array parallelism the paper's Table 1 budget assumes.
  PackedTcAdderFarm farm(params.adders, params.width, cell);
  if (params.farm_hook) params.farm_hook(farm);
  PackedAddOutcome outcome = farm.run(op_a, op_b);

  // The pulse schedule is constant-time, so every op costs the same
  // pulses and latency.
  const std::uint64_t pulses_per_op =
      static_cast<std::uint64_t>(PackedTcAdderFarm::steps(params.width));
  const Time per_add_latency = farm.add_latency();

  // Reduce in operation order: totals are identical at any thread
  // count.
  ParallelAddResult result;
  result.sums = std::move(outcome.sums);
  const std::size_t batches =
      (params.operations + params.adders - 1) / params.adders;
  for (std::size_t batch = 0; batch < batches; ++batch) {
    const std::size_t begin = batch * params.adders;
    const std::size_t end =
        std::min(begin + params.adders, params.operations);
    for (std::size_t op = begin; op < end; ++op) {
      result.total_pulses += pulses_per_op;
      result.total_energy += Energy(outcome.energies[op]);
      if (result.sums[op] != ((op_a[op] + op_b[op]) & max_operand))
        ++result.mismatches;
    }
    result.latency += per_add_latency;
  }
  result.transitions = outcome.transitions;
  if (params.record_per_op) result.op_energy = std::move(outcome.energies);

  record_workload(params, result, batches);
  return result;
}

}  // namespace memcim
