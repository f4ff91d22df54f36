// The compile-once/replay-many driver: pass pipeline + packed lowering.
//
// `compile` takes recorded microcode and produces a CompiledProgram
// carrying BOTH executable forms:
//
//   * `source` / `packed_source` — the recorded program unchanged, for
//     book-exact replay (bitwise-identical outputs AND cost books vs
//     the scalar fabric walk it was recorded from; CimTile's compare
//     books this form in closed form and checks it against a probe
//     replay when it binds),
//   * `optimized` / `packed_optimized` — the pass-pipeline output, for
//     minimum-pulse replay with its own exactly-reconciled books (what
//     bench_compiler gates).
//
// Both forms come with ready PackedRunOptions (cost quanta + the
// window-packing block grain), so call sites replay with one call.
#pragma once

#include "isa/passes.h"
#include "logic/packed.h"
#include "logic/program.h"

namespace memcim::isa {

/// Cost quanta of the fabric the program will replay against.  They
/// feed the cache key: programs compiled for different cost models are
/// distinct artifacts.
struct CompileOptions {
  LogicCostModel cost{};
};

struct CompiledProgram {
  CimProgram source;
  CimProgram optimized;
  PackedProgram packed_source;
  PackedProgram packed_optimized;
  PassStats stats;
  PackedRunOptions run_source;     ///< quanta + grain for packed_source
  PackedRunOptions run_optimized;  ///< quanta + grain for packed_optimized
};

/// Validate, optimize, lower both forms for the packed engine, and pick
/// the window-packing grain.  Books the compiler.* telemetry counters
/// (see docs/TELEMETRY.md).
[[nodiscard]] CompiledProgram compile(const CimProgram& source,
                                      const CompileOptions& options = {});

}  // namespace memcim::isa
