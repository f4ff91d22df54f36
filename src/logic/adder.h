// IMPLY ripple-carry adder — "IMP can be used to design arithmetic
// operations such as adders [58, 56]; hence, it paves the path to more
// complex memristive in-memory-computing architectures" (Section IV.C).
//
// This is the straightforward gate-level construction (full adder from
// XOR/AND/OR IMP programs); it is deliberately unoptimized so that
// bench_ablation_adders can show why the CRS TC-adder's 4N+5 schedule
// (packed_adder.h) is the one the paper budgets in Table 1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "logic/fabric.h"
#include "logic/gates.h"

namespace memcim {

struct FullAdderResult {
  Reg sum;
  Reg carry;
};

/// One-bit full adder: sum = a⊕b⊕cin, carry = ab ∨ cin(a⊕b).
/// [43 steps, 17 registers on a 1-step backend]
[[nodiscard]] FullAdderResult full_adder(Fabric& f, Reg a, Reg b, Reg cin);

[[nodiscard]] GateCost cost_full_adder();

struct RippleAdderResult {
  std::vector<Reg> sum;  ///< LSB first, same width as the inputs
  Reg carry_out;
};

/// N-bit ripple-carry adder over register words (LSB first).
[[nodiscard]] RippleAdderResult ripple_adder(Fabric& f,
                                             std::span<const Reg> a,
                                             std::span<const Reg> b);

/// Steps of an N-bit ripple add on a 1-step backend (1 + 43·N: the
/// leading step initializes the carry-in register).
[[nodiscard]] std::size_t ripple_adder_steps(std::size_t bits);

/// Convenience: add two integers through the fabric and return the
/// numeric result (LSB-first word load, ripple add, word read).
[[nodiscard]] std::uint64_t add_integers(Fabric& f, std::uint64_t a,
                                         std::uint64_t b, std::size_t bits);

}  // namespace memcim
