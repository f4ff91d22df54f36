#include "support/program_golden.h"

#include "common/error.h"
#include "telemetry/telemetry.h"

namespace memcim {

namespace {

/// Full replay of one fresh window, booking program.* telemetry the way
/// run_program_simd does per window.
Reg replay(const CimProgram& program, Fabric& fabric,
           const std::vector<bool>& inputs) {
  const Reg base = allocate_program_window(fabric, program.registers);
  const std::uint64_t implies =
      replay_program_window(program, fabric, base, inputs);
  if (telemetry::enabled()) {
    detail::ProgramMetrics& m = detail::program_metrics();
    m.runs.add(1);
    m.instructions.add(program.instructions.size());
    m.imply_steps.add(implies);
  }
  return base;
}

}  // namespace

bool run_program(const CimProgram& program, Fabric& fabric,
                 const std::vector<bool>& inputs) {
  const Reg base = replay(program, fabric, inputs);
  return fabric.read(base + program.output);
}

std::vector<bool> run_program_wide(const CimProgram& program, Fabric& fabric,
                                   const std::vector<bool>& inputs) {
  const Reg base = replay(program, fabric, inputs);
  const std::vector<Reg> outs = result_registers(program);
  std::vector<bool> bits;
  bits.reserve(outs.size());
  for (const Reg r : outs) bits.push_back(fabric.read(base + r));
  return bits;
}

std::vector<bool> run_program_prefix(const CimProgram& program, Fabric& fabric,
                                     const std::vector<bool>& inputs,
                                     std::size_t length) {
  const Reg base = allocate_program_window(fabric, program.registers);
  (void)replay_program_window(program, fabric, base, inputs, length);
  std::vector<bool> state(program.registers);
  for (std::size_t i = 0; i < program.registers; ++i)
    state[i] = fabric.read(base + i);
  return state;
}

std::optional<std::size_t> minimal_failing_prefix(
    const CimProgram& program, const std::vector<bool>& inputs,
    const FabricFactory& make_reference, const FabricFactory& make_subject) {
  for (std::size_t length = 0; length <= program.length(); ++length) {
    const auto ref_fabric = make_reference();
    const auto sub_fabric = make_subject();
    MEMCIM_CHECK_MSG(ref_fabric && sub_fabric, "fabric factory returned null");
    const std::vector<bool> ref =
        run_program_prefix(program, *ref_fabric, inputs, length);
    const std::vector<bool> sub =
        run_program_prefix(program, *sub_fabric, inputs, length);
    if (ref != sub) return length;
  }
  return std::nullopt;
}

DiffOutcome diff_program_run(const CimProgram& program,
                             const std::vector<bool>& inputs,
                             Fabric& reference, Fabric& subject) {
  const bool expect = run_program(program, reference, inputs);
  const bool got = run_program(program, subject, inputs);
  return expect == got ? DiffOutcome::kClean : DiffOutcome::kSilent;
}

}  // namespace memcim
