// A multi-tile CIM machine: the scaled-out form of Figure 2's proposed
// architecture.  Many CimTiles sit behind a CMOS controller; workloads
// larger than one tile are sharded across tiles and executed in
// parallel waves.  The machine aggregates the tile books and adds the
// (CMOS-side) dispatch cost per wave, so examples can report end-to-end
// latency/energy for working sets far beyond a single crossbar.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/cim_tile.h"

namespace memcim {

struct CimMachineConfig {
  std::size_t tiles = 4;
  CimTileConfig tile{};
  /// CMOS controller dispatch overhead per parallel wave (one cycle of
  /// the 1 GHz interface clock per Table 1's conventions).
  Time dispatch_latency{1e-9};
  Energy dispatch_energy{1e-12};
};

/// Machine-side books.  Energy deliberately lives elsewhere: tiles are
/// the single source of truth for crossbar energy (CimMachine::tile_energy
/// sums their live books) and the machine only accumulates its own
/// dispatch overhead — so a joule is counted exactly once no matter how
/// callers interleave machine waves with direct tile(i) operations.
struct CimMachineStats {
  Time latency{0.0};
  std::uint64_t waves = 0;
  std::uint64_t operations = 0;
};

/// A sharded associative-match machine over many tiles.
class CimMachine {
 public:
  explicit CimMachine(const CimMachineConfig& config);

  [[nodiscard]] const CimMachineConfig& config() const { return config_; }
  [[nodiscard]] const CimMachineStats& stats() const { return stats_; }

  /// Crossbar-side energy: the sum of the live per-tile cost books.
  [[nodiscard]] Energy tile_energy() const;
  /// CMOS controller dispatch energy accumulated across waves.
  [[nodiscard]] Energy dispatch_energy() const { return dispatch_energy_; }
  /// End-to-end machine energy — the one accounting path.
  [[nodiscard]] Energy energy() const {
    return tile_energy() + dispatch_energy_;
  }
  [[nodiscard]] std::size_t capacity_rows() const {
    return config_.tiles * config_.tile.rows;
  }

  /// Store a word at a global row index (tiles fill in order).
  void store(std::size_t global_row, const std::vector<bool>& bits);
  [[nodiscard]] std::vector<bool> load(std::size_t global_row);

  /// Match `key` against every stored row on every tile.  All tiles
  /// search concurrently: one wave = one tile-compare latency + one
  /// dispatch overhead.  Returns global row indices of matches.
  [[nodiscard]] std::vector<std::size_t> search(const std::vector<bool>& key);

  [[nodiscard]] CimTile& tile(std::size_t index);

 private:
  struct Location {
    std::size_t tile;
    std::size_t row;
  };
  [[nodiscard]] Location locate(std::size_t global_row) const;

  CimMachineConfig config_;
  std::vector<CimTile> tiles_;
  CimMachineStats stats_;
  Energy dispatch_energy_{0.0};
};

}  // namespace memcim
