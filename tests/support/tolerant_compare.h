// A tile-level tolerant compare: a row matches when at most
// `max_mismatched_bits` bits differ from the key.  The circuit model is
// per-bit XORs feeding a match line whose discharge is thresholded by
// the sense amp.  No binary runs it: the DNA pipeline's tolerant
// matching is match_reads_tolerant (workloads/dna.h).  It is kept with
// the tests written for it.
#pragma once

#include <cstddef>
#include <vector>

#include "arch/cim_tile.h"

namespace memcim {

struct TolerantCompareResult {
  std::vector<bool> matches;  ///< one per tile row
  Time latency{0.0};          ///< one XOR pass plus the sense pulses
  Energy energy{0.0};         ///< summed over rows
};

/// Compare `key` against every row of `tile` (rows read back through
/// load_row, so the bank's read books accrue as usual).
[[nodiscard]] TolerantCompareResult parallel_compare_tolerant(
    CimTile& tile, const std::vector<bool>& key,
    std::size_t max_mismatched_bits);

}  // namespace memcim
