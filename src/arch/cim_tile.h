// A functional CIM tile: non-volatile CRS storage rows plus a stateful
// IMPLY compute fabric per row, under one controller — the executable
// version of Figure 2's "proposed architecture" (storage and
// computation integrated in the same physical location).
//
// The tile executes the operation the paper's DNA example needs:
//
//   * parallel_compare — match a key word against every stored row
//     simultaneously (the DNA primitive).  Latency is one comparator
//     pass (all rows run concurrently on their own row logic); energy
//     sums over rows.  Each row is one packed window of the
//     word-equality program, which the tile binds on its first compare
//     and keeps: the storage bank is read as one transaction and hands
//     its value plane over as u64 words, which are transposed straight
//     into the replay's input lane words in buffers the tile reuses.
//     The books equal the per-row IdealFabric walk bit for bit
//     (tests/arch/compare_engine_test.cpp keeps that walk as the
//     oracle).
//
// The math primitive runs on PackedTcAdderFarm (logic/packed_adder.h)
// through run_parallel_add_ops (workloads/parallel_add.h); the sharded
// and serving add paths run one such farm per tile.
//
// The controller keeps latency/energy books with the Table 1 cost
// quanta so examples and integration tests can report architecture
// numbers straight from functional runs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "crossbar/crs_memory.h"
#include "isa/compiler.h"
#include "logic/fabric.h"

namespace memcim {

struct CimTileConfig {
  std::size_t rows = 64;       ///< stored words
  std::size_t row_bits = 64;   ///< bits per row
  CrsCellParams cell{};        ///< storage/logic cell parameters
  LogicCostModel cost{};       ///< step/energy quanta (Table 1)
};

struct CimTileStats {
  Time latency{0.0};      ///< accumulated critical-path latency
  Energy energy{0.0};     ///< accumulated dynamic energy
  std::uint64_t operations = 0;
};

/// Cache-line aligned: a TileFabric keeps its tiles contiguous and
/// drives them from different pool workers, and every row read or
/// write updates the storage bank's inline totals and the tile's stats,
/// so one tile's state must never share a line with its neighbour's.
class alignas(64) CimTile {
 public:
  explicit CimTile(const CimTileConfig& config);

  [[nodiscard]] const CimTileConfig& config() const { return config_; }
  [[nodiscard]] const CimTileStats& stats() const { return stats_; }

  /// Store a word into a row (LSB-first bit order).
  void store_row(std::size_t row, const std::vector<bool>& bits);
  /// Read a row back (with CRS write-back semantics).
  [[nodiscard]] std::vector<bool> load_row(std::size_t row);

  /// Compare `key` against every stored row in parallel; returns the
  /// per-row match vector.  Accrues one comparator-pass latency and the
  /// summed energy of all row comparators.
  [[nodiscard]] std::vector<bool> parallel_compare(
      const std::vector<bool>& key);

  /// Direct access to the storage bank (for tests).
  [[nodiscard]] const CrsMemory& memory() const { return memory_; }

 private:
  CimTileConfig config_;
  CrsMemory memory_;
  CimTileStats stats_;
  // parallel_compare's program, bound on the first compare (a cache
  // cleared after construction then compiles once), and its lane words.
  std::shared_ptr<const isa::CompiledProgram> compare_program_;
  std::vector<std::uint64_t> lane_words_;
};

}  // namespace memcim
