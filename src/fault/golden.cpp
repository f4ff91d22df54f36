#include "fault/golden.h"

namespace memcim {

const char* to_string(DiffOutcome o) {
  switch (o) {
    case DiffOutcome::kClean: return "clean";
    case DiffOutcome::kCorrected: return "corrected";
    case DiffOutcome::kDetected: return "detected";
    case DiffOutcome::kSilent: return "silent";
  }
  return "?";
}

void DiffTally::add(DiffOutcome outcome) {
  ++trials;
  switch (outcome) {
    case DiffOutcome::kClean: ++clean; break;
    case DiffOutcome::kCorrected: ++corrected; break;
    case DiffOutcome::kDetected: ++detected; break;
    case DiffOutcome::kSilent: ++silent; break;
  }
}

}  // namespace memcim
