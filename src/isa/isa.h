// The IMPLY ISA: the structural contract of CimProgram microcode.
//
// The paper's CMOS controller (Section III.A) replays stored microcode
// against the crossbar; Splittgerber et al. (PAPERS.md) define an ISA
// for exactly this IMPLY-based processing-in-array layer.  Every
// consumer of a program (the optimization passes, the compiler and the
// packed engine) checks it against the same limits through
// `validate_program`.
//
// Register operands are 14 bits wide, which caps a program window at
// 16384 rows — far above any recorded kernel (a 64-bit word-equality
// uses ~600) and matching the paper's per-tile crossbar scale.
#pragma once

#include <cstddef>

#include "logic/program.h"

namespace memcim::isa {

/// Hard ISA limit from the 14-bit register fields.
inline constexpr std::size_t kMaxRegisters = std::size_t{1} << 14;

/// Structural validation shared by every optimization pass and the
/// compiler: register window bounds, input arity, result registers in
/// range, every instruction operand in range.  Throws Error with a
/// diagnostic on the first violation.
void validate_program(const CimProgram& program);

}  // namespace memcim::isa
