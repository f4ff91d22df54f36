#include "logic/program.h"

#include "common/error.h"
#include "telemetry/telemetry.h"

namespace memcim {

namespace {

/// Telemetry-booking full replay used by the run_program* entry points.
void replay(const CimProgram& program, Fabric& fabric, Reg base,
            const std::vector<bool>& inputs) {
  const std::uint64_t implies =
      replay_program_window(program, fabric, base, inputs);
  if (telemetry::enabled()) {
    detail::ProgramMetrics& m = detail::program_metrics();
    m.runs.add(1);
    m.instructions.add(program.instructions.size());
    m.imply_steps.add(implies);
  }
}

}  // namespace

std::vector<Reg> result_registers(const CimProgram& program) {
  if (!program.outputs.empty()) return program.outputs;
  return {program.output};
}

Reg allocate_program_window(Fabric& fabric, std::size_t registers) {
  MEMCIM_CHECK_MSG(registers > 0, "program has no registers");
  const Reg base = fabric.alloc();
  for (std::size_t i = 1; i < registers; ++i) (void)fabric.alloc();
  return base;
}

std::uint64_t replay_program_window(const CimProgram& program, Fabric& fabric,
                                    Reg base, const std::vector<bool>& inputs,
                                    std::size_t length) {
  MEMCIM_CHECK_MSG(length <= program.length(), "prefix exceeds program");
  MEMCIM_CHECK_MSG(inputs.size() == program.inputs,
                   "program expects " << program.inputs << " inputs, got "
                                      << inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i)
    fabric.set(base + i, inputs[i]);
  std::uint64_t implies = 0;
  for (std::size_t i = 0; i < length; ++i) {
    const CimInstruction& inst = program.instructions[i];
    switch (inst.op) {
      case CimOp::kSetFalse:
        fabric.set(base + inst.a, false);
        break;
      case CimOp::kSetTrue:
        fabric.set(base + inst.a, true);
        break;
      case CimOp::kImply:
        fabric.imply(base + inst.a, base + inst.b);
        ++implies;
        break;
    }
  }
  return implies;
}

std::uint64_t replay_program_window(const CimProgram& program, Fabric& fabric,
                                    Reg base,
                                    const std::vector<bool>& inputs) {
  return replay_program_window(program, fabric, base, inputs,
                               program.length());
}

bool run_program(const CimProgram& program, Fabric& fabric,
                 const std::vector<bool>& inputs) {
  const Reg base = allocate_program_window(fabric, program.registers);
  replay(program, fabric, base, inputs);
  return fabric.read(base + program.output);
}

std::vector<bool> run_program_wide(const CimProgram& program, Fabric& fabric,
                                   const std::vector<bool>& inputs) {
  const Reg base = allocate_program_window(fabric, program.registers);
  replay(program, fabric, base, inputs);
  const std::vector<Reg> outs = result_registers(program);
  std::vector<bool> bits;
  bits.reserve(outs.size());
  for (const Reg r : outs) bits.push_back(fabric.read(base + r));
  return bits;
}

SimdRunResult run_program_simd(
    const CimProgram& program, Fabric& fabric,
    const std::vector<std::vector<bool>>& input_sets) {
  MEMCIM_CHECK_MSG(!input_sets.empty(), "SIMD run needs at least one window");
  detail::program_metrics().simd_windows.add(input_sets.size());
  fabric.reset_counters();
  SimdRunResult result;
  result.outputs.reserve(input_sets.size());
  for (const std::vector<bool>& inputs : input_sets) {
    const Reg base = allocate_program_window(fabric, program.registers);
    replay(program, fabric, base, inputs);
    result.outputs.push_back(fabric.read(base + program.output));
  }
  // All windows execute the identical instruction stream concurrently:
  // the pass latency is one window's step count.
  const std::uint64_t steps_per_window =
      fabric.steps() / input_sets.size();
  result.latency = fabric.cost_model().t_step *
                   static_cast<double>(steps_per_window);
  result.energy = fabric.energy();
  result.writes = fabric.writes();
  return result;
}

}  // namespace memcim
