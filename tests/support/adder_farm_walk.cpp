#include "support/adder_farm_walk.h"

#include <algorithm>

#include "common/error.h"

namespace memcim {

CrsTcAdderFarm::CrsTcAdderFarm(std::size_t slots, std::size_t width,
                               const CrsCellParams& cell) {
  MEMCIM_CHECK(slots >= 1);
  adders_.reserve(slots);
  for (std::size_t s = 0; s < slots; ++s) adders_.emplace_back(width, cell);
}

std::vector<TcAdderResult> CrsTcAdderFarm::run(
    const std::vector<std::uint64_t>& a, const std::vector<std::uint64_t>& b) {
  MEMCIM_CHECK(a.size() == b.size());
  std::vector<TcAdderResult> results(a.size());
  for (std::size_t op = 0; op < a.size(); ++op)
    results[op] = adders_[op % adders_.size()].add(a[op], b[op]);
  return results;
}

void CrsTcAdderFarm::inject_stuck(std::size_t site, bool stuck_one) {
  const std::size_t per_adder = adders_.front().fault_sites();
  MEMCIM_CHECK(site < adders_.size() * per_adder);
  adders_[site / per_adder].inject_stuck(site % per_adder, stuck_one);
}

std::uint64_t CrsTcAdderFarm::transitions() const {
  std::uint64_t total = 0;
  for (const CrsTcAdder& adder : adders_) total += adder.transitions();
  return total;
}

ParallelAddResult walk_parallel_add_ops(
    const ParallelAddParams& params, const CrsCellParams& cell,
    const std::vector<std::uint64_t>& op_a,
    const std::vector<std::uint64_t>& op_b,
    const std::function<void(CrsTcAdderFarm&)>& pin) {
  MEMCIM_CHECK(op_a.size() == params.operations &&
               op_b.size() == params.operations);
  CrsTcAdderFarm farm(params.adders, params.width, cell);
  if (pin) pin(farm);
  const std::vector<TcAdderResult> results = farm.run(op_a, op_b);

  const std::uint64_t max_operand = (std::uint64_t{1} << params.width) - 1;
  ParallelAddResult out;
  out.sums.resize(params.operations);
  out.op_energy.resize(params.operations);
  // Batches run back-to-back; the adders of one batch in parallel.
  for (std::size_t begin = 0; begin < params.operations;
       begin += params.adders) {
    const std::size_t end = std::min(begin + params.adders, params.operations);
    Time worst_in_batch{0.0};
    for (std::size_t op = begin; op < end; ++op) {
      const TcAdderResult& r = results[op];
      out.sums[op] = r.sum;
      out.op_energy[op] = r.energy.value();
      out.total_pulses += r.pulses;
      out.total_energy += r.energy;
      worst_in_batch = std::max(worst_in_batch, r.latency);
      if (r.sum != ((op_a[op] + op_b[op]) & max_operand)) ++out.mismatches;
    }
    out.latency += worst_in_batch;
  }
  out.transitions = farm.transitions();
  return out;
}

}  // namespace memcim
