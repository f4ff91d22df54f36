// Test oracles for CimTile::parallel_compare (src/arch/cim_tile.h), which
// books the word-equality program in closed form and replays nothing.
//
//   * ScalarCompareOracle — the per-row IdealFabric walk the program is
//     recorded from: each row owns its slice of the fabric and rows run
//     concurrently, so one compare costs the slowest row's latency and
//     the sum of the rows' energies, folded in row order.
//   * ReplayCompareOracle — the tile as it was before the closed form: a
//     CrsMemory bank read row by row through the eager read_word path,
//     64 x 64 blocks of its row words transposed into input lane words,
//     and every row replayed as one window of the bound program through
//     run_program_packed.  It books the bank's reads, crs_cell.*, fabric.*,
//     program.* and logic.packed.transitions event by event, so the tile
//     must book the same.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/cim_tile.h"
#include "crossbar/crs_memory.h"
#include "isa/compiler.h"
#include "logic/fabric.h"

namespace memcim {

class ScalarCompareOracle {
 public:
  explicit ScalarCompareOracle(const LogicCostModel& cost) : cost_(cost) {}

  std::vector<bool> compare(const std::vector<std::vector<bool>>& rows,
                            const std::vector<bool>& key);

  Time latency{0.0};
  Energy energy{0.0};

 private:
  LogicCostModel cost_;
};

class ReplayCompareOracle {
 public:
  explicit ReplayCompareOracle(const CimTileConfig& config);

  void store_row(std::size_t row, const std::vector<bool>& bits);
  [[nodiscard]] std::vector<bool> parallel_compare(
      const std::vector<bool>& key);

  [[nodiscard]] const CimTileStats& stats() const { return stats_; }
  [[nodiscard]] const CrsMemory& memory() const { return memory_; }

 private:
  CimTileConfig config_;
  CrsMemory memory_;
  CimTileStats stats_;
  std::shared_ptr<const isa::CompiledProgram> program_;
  std::vector<std::uint64_t> lane_words_;
};

}  // namespace memcim
