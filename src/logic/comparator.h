// Memristive comparators — the CIM work-horse of the paper's DNA
// sequencing example (Table 1: "Comparator: 2 XOR and a NAND
// implemented by implication logic [58]; 13 memristors; 16 steps").
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "logic/fabric.h"

namespace memcim {

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

/// Helper: load a bit vector into freshly allocated registers.
[[nodiscard]] std::vector<Reg> load_word(Fabric& f,
                                         const std::vector<bool>& bits);

}  // namespace memcim
