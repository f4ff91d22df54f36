// Cached workload kernels: the compile-once/replay-many entry points.
//
// Each kernel records its gate-library microcode ONCE per (shape,
// fabric) key into the global ProgramCache and replays the compiled
// artifact thereafter.  Replay books reconcile exactly with a scalar
// run_program_simd of the same program (the packed-engine guarantee);
// the *source* form additionally reconciles with the fabric walk it was
// recorded from (tests/arch/compare_engine_test.cpp keeps that walk as
// the tile compare's oracle) — see docs/ISA.md for the reconciliation
// table.
#pragma once

#include <cstddef>
#include <memory>

#include "isa/cache.h"

namespace memcim::isa {

/// N-bit word equality (the k-mer/tile compare primitive): inputs are
/// the key word then the row word (LSB first); output is the match bit.
[[nodiscard]] std::shared_ptr<const CompiledProgram> cached_word_equality(
    std::size_t bits, const CompileOptions& options = {});

/// N-bit ternary masked equality (the CAM primitive): inputs are key,
/// stored value, per-bit care mask (1 = bit participates), then a row
/// valid bit; output = valid AND every cared bit equal.
[[nodiscard]] std::shared_ptr<const CompiledProgram> cached_masked_equality(
    std::size_t bits, const CompileOptions& options = {});

/// N-bit ripple-carry adder: inputs a then b (LSB first); outputs the
/// sum bits LSB first, then the carry-out.
[[nodiscard]] std::shared_ptr<const CompiledProgram> cached_ripple_adder(
    std::size_t bits, const CompileOptions& options = {});

}  // namespace memcim::isa
