// Closed-loop program-and-verify writes on a crossbar: pulse, sense,
// repeat.  No binary runs it (the benches write with single pulses);
// it is kept with the tests written for it.
#pragma once

#include <cstddef>

#include "crossbar/readout.h"

namespace memcim {

/// Outcome of a program-and-verify transaction.
struct ProgramVerifyResult {
  bool success = false;
  std::size_t write_pulses = 0;  ///< pulses actually issued
  std::size_t verify_reads = 0;
  Energy array_energy{0.0};
};

/// Closed-loop write: pulse, sense, repeat until the cell verifies (or
/// `max_pulses` is exhausted) — the standard ReRAM programming scheme
/// that tolerates weak pulses and cycle-to-cycle variation where the
/// open-loop write_bit() silently under-programs.
[[nodiscard]] ProgramVerifyResult program_verify_write(
    CrossbarArray& array, std::size_t r, std::size_t c, bool bit,
    const WriteConfig& write_config, const ReadConfig& read_config,
    const ReadMeasurement& reference, std::size_t max_pulses = 16);

}  // namespace memcim
