// Textual assembler / disassembler for the IMPLY ISA.
//
// The text form is the human-readable twin of the binary format in
// isa_encoding.h.  No binary reads or writes it; it is kept with the
// tests written for it:
//
//   ; 2-input AND, recorded from the gate library
//   .registers 7
//   .inputs 2
//   .output r6          ; or: .outputs r4 r5 r6 (multi-bit results)
//   SET0 r2
//   IMP  r0 r2          ; r2 <- !r0 | r2
//   SET1 r6
//
// One instruction per line; `;` starts a comment; directives may appear
// in any order but must precede the first instruction.
#pragma once

#include <string>

#include "logic/program.h"

namespace memcim::isa {

/// Render a validated program as assembly text (ends with a newline).
[[nodiscard]] std::string disassemble(const CimProgram& program);

/// Parse assembly text back into a validated program.  Throws Error
/// with a line-numbered diagnostic on malformed input.
[[nodiscard]] CimProgram assemble(const std::string& text);

}  // namespace memcim::isa
