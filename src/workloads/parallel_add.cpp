#include "workloads/parallel_add.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/parallel.h"
#include "logic/packed_adder.h"
#include "logic/tc_adder.h"
#include "telemetry/telemetry.h"

namespace memcim {

namespace {

/// Fan-out grain of the adder farm: ops per chunk on the scalar path,
/// converted to whole 64-op lane blocks on the packed path.  Tuned so
/// a chunk amortizes the pool hand-off but a default farm still splits
/// across workers.
constexpr std::size_t kParallelAddChunkGrain = 8;

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

void run_scalar_farm(const ParallelAddParams& params,
                     const CrsCellParams& cell,
                     const std::vector<std::uint64_t>& op_a,
                     const std::vector<std::uint64_t>& op_b,
                     std::uint64_t max_operand, std::size_t batches,
                     ParallelAddResult& result) {
  // One physical adder per farm slot, reused across batches.
  std::vector<CrsTcAdder> farm;
  farm.reserve(params.adders);
  for (std::size_t i = 0; i < params.adders; ++i)
    farm.emplace_back(params.width, cell);
  if (params.farm_hook) params.farm_hook(farm);

  std::vector<TcAdderResult> batch_results(params.adders);
  Time batch_latency{0.0};
  for (std::size_t batch = 0; batch < batches; ++batch) {
    const std::size_t begin = batch * params.adders;
    const std::size_t end =
        std::min(begin + params.adders, params.operations);
    // Tile-level fan-out: each farm slot is an independent physical
    // adder, so the ops of one batch run concurrently — exactly the
    // in-array parallelism the paper's Table 1 budget assumes.
    parallel_for(begin, end, kParallelAddChunkGrain, [&](std::size_t op) {
      batch_results[op - begin] = farm[op - begin].add(op_a[op], op_b[op]);
    });
    // Reduce in operation order: totals are identical at any thread
    // count.
    Time worst_in_batch{0.0};
    for (std::size_t op = begin; op < end; ++op) {
      const TcAdderResult& r = batch_results[op - begin];
      result.sums[op] = r.sum;
      result.total_pulses += r.pulses;
      result.total_energy += r.energy;
      if (params.record_per_op) result.op_energy[op] = r.energy.value();
      worst_in_batch = std::max(worst_in_batch, r.latency);
      if (r.sum != ((op_a[op] + op_b[op]) & max_operand)) ++result.mismatches;
    }
    batch_latency += worst_in_batch;
  }
  result.latency = batch_latency;
  for (const CrsTcAdder& adder : farm) result.transitions += adder.transitions();
}

void run_packed_farm(const ParallelAddParams& params,
                     const CrsCellParams& cell,
                     const std::vector<std::uint64_t>& op_a,
                     const std::vector<std::uint64_t>& op_b,
                     std::uint64_t max_operand, std::size_t batches,
                     ParallelAddResult& result) {
  PackedTcAdderFarm farm(params.adders, params.width, cell);
  const PackedAddOutcome outcome =
      farm.run(op_a, op_b, kParallelAddChunkGrain);

  // The pulse schedule is constant-time, so every op reports the same
  // pulse count and latency as its scalar twin.
  const std::uint64_t pulses_per_op =
      static_cast<std::uint64_t>(CrsTcAdder::steps(params.width));
  const Time per_add_latency =
      cell.t_pulse * static_cast<double>(pulses_per_op);

  // Identical serial reduction to the scalar farm — per-op energies are
  // already the exact doubles CrsTcAdder::add would have reported, so
  // the op-order accumulation reproduces every total bit for bit.
  Time batch_latency{0.0};
  for (std::size_t batch = 0; batch < batches; ++batch) {
    const std::size_t begin = batch * params.adders;
    const std::size_t end =
        std::min(begin + params.adders, params.operations);
    Time worst_in_batch{0.0};
    for (std::size_t op = begin; op < end; ++op) {
      result.sums[op] = outcome.sums[op];
      result.total_pulses += pulses_per_op;
      result.total_energy += Energy(outcome.energies[op]);
      if (params.record_per_op) result.op_energy[op] = outcome.energies[op];
      worst_in_batch = std::max(worst_in_batch, per_add_latency);
      if (outcome.sums[op] != ((op_a[op] + op_b[op]) & max_operand))
        ++result.mismatches;
    }
    batch_latency += worst_in_batch;
  }
  result.latency = batch_latency;
  result.transitions = outcome.transitions;
  result.used_packed_engine = true;

  if (telemetry::enabled()) {
    // The scalar farm's device cells would have booked these exact
    // tallies pulse by pulse; the packed engine books them once from
    // the reduction totals (crs_cell.switch_energy_aj accrues one
    // fixed attojoule quantum per transition).
    using telemetry::Registry;
    static telemetry::Counter& cell_pulses =
        Registry::global().counter("crs_cell.pulses");
    static telemetry::Counter& cell_transitions =
        Registry::global().counter("crs_cell.transitions");
    static telemetry::Counter& cell_energy_aj =
        Registry::global().counter("crs_cell.switch_energy_aj");
    cell_pulses.add(static_cast<std::uint64_t>(params.operations) *
                    pulses_per_op);
    cell_transitions.add(outcome.transitions);
    cell_energy_aj.add(outcome.transitions *
                       static_cast<std::uint64_t>(std::llround(
                           cell.e_per_switch.value() * 1e18)));
  }
}

}  // namespace

ParallelAddResult run_parallel_add(const ParallelAddParams& params,
                                   const CrsCellParams& cell, Rng& rng) {
  MEMCIM_CHECK(params.width >= 1 && params.width <= 63);
  const std::uint64_t max_operand =
      (std::uint64_t{1} << params.width) - 1;

  // Draw every operand up front, in operation order, so the RNG stream
  // (and therefore the result) is independent of how the batch fan-out
  // below is scheduled.
  std::vector<std::uint64_t> op_a(params.operations), op_b(params.operations);
  for (std::size_t op = 0; op < params.operations; ++op) {
    op_a[op] = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(max_operand)));
    op_b[op] = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(max_operand)));
  }
  return run_parallel_add_ops(params, cell, op_a, op_b);
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

  // Engine choice: armed fault hooks pin per-cell device state
  // mid-schedule, which only the real device walk models — they are
  // the one thing that selects the scalar farm.
  const bool packed = !params.farm_hook;
  if (!packed && telemetry::enabled())
    telemetry::Registry::global()
        .counter("logic.packed.adder_fallbacks")
        .add(1);

  ParallelAddResult result;
  result.sums.assign(params.operations, 0);
  if (params.record_per_op) result.op_energy.assign(params.operations, 0.0);
  const std::size_t batches =
      (params.operations + params.adders - 1) / params.adders;
  if (packed)
    run_packed_farm(params, cell, op_a, op_b, max_operand, batches, result);
  else
    run_scalar_farm(params, cell, op_a, op_b, max_operand, batches, result);

  record_workload(params, result, batches);
  return result;
}

}  // namespace memcim
