#include "isa/isa.h"

#include "common/error.h"

namespace memcim::isa {

void validate_program(const CimProgram& program) {
  MEMCIM_CHECK_MSG(program.registers > 0, "program has no registers");
  MEMCIM_CHECK_MSG(program.registers <= kMaxRegisters,
                   "program window of " << program.registers
                                        << " registers exceeds the ISA limit "
                                        << kMaxRegisters);
  MEMCIM_CHECK_MSG(program.inputs <= program.registers,
                   "program declares " << program.inputs << " inputs over "
                                       << program.registers << " registers");
  MEMCIM_CHECK_MSG(program.output < program.registers,
                   "program output register " << program.output
                                              << " out of range");
  for (const Reg r : program.outputs)
    MEMCIM_CHECK_MSG(r < program.registers,
                     "program output register " << r << " out of range");
  for (std::size_t i = 0; i < program.instructions.size(); ++i) {
    const CimInstruction& inst = program.instructions[i];
    MEMCIM_CHECK_MSG(inst.a < program.registers,
                     "instruction " << i << ": register a=" << inst.a
                                    << " out of range");
    if (inst.op == CimOp::kImply)
      MEMCIM_CHECK_MSG(inst.b < program.registers,
                       "instruction " << i << ": register b=" << inst.b
                                      << " out of range");
  }
}

}  // namespace memcim::isa
