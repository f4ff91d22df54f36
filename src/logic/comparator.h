// Memristive comparators — the CIM work-horse of the paper's DNA
// sequencing example (Table 1: "Comparator: 2 XOR and a NAND
// implemented by implication logic [58]; 13 memristors; 16 steps").
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "logic/fabric.h"

namespace memcim {

struct PackedProgram;

/// Cost sheet of a 2-bit (one nucleotide) comparator.
struct ComparatorCost {
  /// Latency when the two XORs run on disjoint rows in parallel: the
  /// paper's 16 steps (XOR 13 + NAND 3).
  std::size_t parallel_steps = 16;
  /// Latency when everything shares one row (13 + 13 + 3).
  std::size_t serial_steps = 29;
  /// Device count as the paper tallies it (2 XOR · 5 + NAND · 3).
  std::size_t devices = 13;
};

[[nodiscard]] ComparatorCost comparator_cost();

/// The paper's literal circuit: out = NAND(a1 ⊕ b1, a0 ⊕ b0).
/// Note this is *not* an equality test (it is 0 only when both bit
/// positions differ); we reproduce it verbatim and provide the
/// semantically-correct equality_comparator() below.  The fabric
/// executes sequentially, so the measured steps equal serial_steps;
/// the architecture model uses parallel_steps per Table 1.
[[nodiscard]] Reg paper_comparator(Fabric& f, Reg a1, Reg a0, Reg b1, Reg b0);

/// out = (a1 == b1) ∧ (a0 == b0) = NOR(a1 ⊕ b1, a0 ⊕ b0): a true 2-bit
/// equality comparator (bench_fig5_imply prints both truth tables).
[[nodiscard]] Reg equality_comparator(Fabric& f, Reg a1, Reg a0, Reg b1,
                                      Reg b0);

/// N-bit word equality: AND-reduction of per-bit XNORs.
[[nodiscard]] Reg word_equality(Fabric& f, std::span<const Reg> a,
                                std::span<const Reg> b);

/// Register flips of packed word_equality windows in closed form.  Every
/// gate of word_equality writes fresh registers, every register starts
/// at 0 and no instruction clears a 1, so a window's flips are its final
/// 1s: its key and row 1s, `xnor[k][r]` for each bit position where the
/// key holds k and the row r, and `chain` for each AND of the chain.
struct WordEqualityFlips {
  std::array<std::array<std::uint64_t, 2>, 2> xnor{};
  std::uint64_t chain = 0;

  /// Flips of `rows` windows of the `bits`-wide program against one key
  /// holding `key_ones` 1s, when the rows hold `row_ones` 1s, of which
  /// `shared_ones` sit where the key holds a 1.
  [[nodiscard]] std::uint64_t total(std::size_t bits, std::uint64_t rows,
                                    std::uint64_t key_ones,
                                    std::uint64_t row_ones,
                                    std::uint64_t shared_ones) const;
};

/// The flip tables of `program`, the `bits`-bit word_equality program
/// (inputs: the key, then the row, LSB first) compiled for the packed
/// engine.  They are derived once per process, by replaying the 1- and
/// 2-bit programs word_equality records on the engine's replay core,
/// and checked against one 64-lane probe block of `program`: a fixed
/// key, rows equal to it, rows that differ from it in the first, middle
/// or last bit, and random rows.  Books nothing.  Throws Error if an
/// AND's flips depend on its inputs, or if the probe's matches or flip
/// total differ from the closed form.
[[nodiscard]] WordEqualityFlips bind_word_equality_flips(
    const PackedProgram& program, std::size_t bits);

/// Helper: load a bit vector into freshly allocated registers.
[[nodiscard]] std::vector<Reg> load_word(Fabric& f,
                                         const std::vector<bool>& bits);

}  // namespace memcim
