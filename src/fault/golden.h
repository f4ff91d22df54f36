// Golden-model differential outcomes.
//
// Every reliability claim in this subsystem is measured the same way:
// run the identical computation on a *golden* substrate (ideal
// semantics, no faults armed) and on the subject substrate (faults
// armed), then classify the divergence.  The taxonomy matters more
// than the count — an error the structure *reports* (ECC uncorrectable
// flag) is qualitatively different from one it silently returns:
//
//   kClean     — outputs identical, nothing flagged,
//   kCorrected — outputs identical because the structure repaired the
//                fault (ECC single-bit correction),
//   kDetected  — outputs differ or are withheld, but the structure
//                raised a flag (ECC double-bit detection),
//   kSilent    — outputs differ and nothing was flagged: silent data
//                corruption, the failure mode campaigns exist to find.
#pragma once

#include <cstdint>

namespace memcim {

enum class DiffOutcome : std::uint8_t {
  kClean,
  kCorrected,
  kDetected,
  kSilent,
};

[[nodiscard]] const char* to_string(DiffOutcome o);

/// Tally of differential trials, by outcome.
struct DiffTally {
  std::uint64_t trials = 0;
  std::uint64_t clean = 0;
  std::uint64_t corrected = 0;
  std::uint64_t detected = 0;
  std::uint64_t silent = 0;

  void add(DiffOutcome outcome);
  [[nodiscard]] double silent_fraction() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(silent) /
                             static_cast<double>(trials);
  }
};

}  // namespace memcim
