#include "support/simd_wide.h"

#include "common/error.h"

namespace memcim {

SimdWideResult run_program_simd_wide(
    const CimProgram& program, Fabric& fabric,
    const std::vector<std::vector<bool>>& input_sets) {
  MEMCIM_CHECK_MSG(!input_sets.empty(), "SIMD run needs at least one window");
  fabric.reset_counters();
  const std::vector<Reg> outs = result_registers(program);
  SimdWideResult result;
  result.outputs.reserve(input_sets.size());
  for (const std::vector<bool>& inputs : input_sets) {
    const Reg base = allocate_program_window(fabric, program.registers);
    (void)replay_program_window(program, fabric, base, inputs);
    std::vector<bool> bits;
    bits.reserve(outs.size());
    for (const Reg r : outs) bits.push_back(fabric.read(base + r));
    result.outputs.push_back(std::move(bits));
  }
  // The windows run the same instruction stream concurrently: the pass
  // latency is one window's step count.
  const std::uint64_t steps_per_window = fabric.steps() / input_sets.size();
  result.latency =
      fabric.cost_model().t_step * static_cast<double>(steps_per_window);
  result.energy = fabric.energy();
  result.writes = fabric.writes();
  return result;
}

}  // namespace memcim
