// Test oracle for the packed replay's multi-output books: a program
// replayed window by window on a scalar Fabric, every result register
// read back.  The multi-output analogue of run_program_simd
// (src/logic/program.h), without its program.* telemetry.
#pragma once

#include <cstdint>
#include <vector>

#include "logic/program.h"

namespace memcim {

struct SimdWideResult {
  std::vector<std::vector<bool>> outputs;  ///< [window][result register]
  Time latency{0.0};                       ///< one program pass
  Energy energy{0.0};                      ///< summed over all windows
  std::uint64_t writes = 0;
};

/// Replay `program` in `input_sets.size()` fresh windows of `fabric`
/// (one fabric.read per result register per window).
[[nodiscard]] SimdWideResult run_program_simd_wide(
    const CimProgram& program, Fabric& fabric,
    const std::vector<std::vector<bool>>& input_sets);

}  // namespace memcim
