// A binary wire format for CimProgram microcode: 32-bit little-endian
// words, or the same words as a byte stream.  No binary ships programs
// in it; it is kept with the tests written for it.
//
// Image layout: header (magic, version, registers, inputs, output
// count, instruction count), then the result registers, then one word
// per instruction:
//
//   bits 31..28  opcode (0 = SET0, 1 = SET1, 2 = IMP)
//   bits 27..14  register a (14 bits)
//   bits 13..0   register b (14 bits, zero for SET0/SET1)
#pragma once

#include <cstdint>
#include <vector>

#include "isa/isa.h"

namespace memcim::isa {

/// Wire-format magic ("MCIM") and current version.
inline constexpr std::uint32_t kMagic = 0x4D43'494Du;
inline constexpr std::uint32_t kVersion = 1;

/// Number of u32 header words before the output list.
inline constexpr std::size_t kHeaderWords = 6;

/// Encode to 32-bit words.  Validates first.
[[nodiscard]] std::vector<std::uint32_t> encode_program(
    const CimProgram& program);

/// Decode and validate a word stream produced by encode_program.
/// Throws Error on a truncated, corrupt or out-of-range image.
[[nodiscard]] CimProgram decode_program(
    const std::vector<std::uint32_t>& words);

/// Byte-stream flavour (little-endian u32s).
[[nodiscard]] std::vector<std::uint8_t> encode_program_bytes(
    const CimProgram& program);
[[nodiscard]] CimProgram decode_program_bytes(
    const std::vector<std::uint8_t>& bytes);

}  // namespace memcim::isa
