// A bank of per-tile CRS CAMs behind the multi-tile fabric, run the way
// src/workloads/sharded.h runs the other two workloads: tile compute on
// the pool, then one FabricSession replays the command/completion
// traffic.  No binary runs it (the serving dispatcher owns the
// production CAM path); the sharded-fabric, attribution and trace tests
// use it as a third session shape.
#pragma once

#include <cstddef>
#include <vector>

#include "arch/tile_fabric.h"
#include "logic/cam.h"
#include "workloads/sharded.h"

namespace memcim {

/// A bank of per-tile CRS CAMs behind the fabric: global rows fill
/// tile-major (tile · rows_per_tile + local row), searches broadcast
/// the key and merge per-tile hits in tile order.
class ShardedCamBank {
 public:
  ShardedCamBank(TileFabric& fabric, const CamConfig& per_tile);

  [[nodiscard]] std::size_t rows() const {
    return cams_.size() * per_tile_.rows;
  }
  [[nodiscard]] CrsCam& cam(std::size_t tile);

  void write_row(std::size_t global_row, const std::vector<bool>& word);
  void write_row_ternary(std::size_t global_row,
                         const std::vector<CamBit>& word);
  /// Pin the value cell at (global_row, bit) stuck — forwarded to the
  /// owning tile's CAM (fault campaigns use global addressing).
  void inject_stuck(std::size_t global_row, std::size_t bit, bool stuck_one);

  struct BankSearchResult {
    std::vector<std::size_t> matching_rows;  ///< global, ascending
    ShardedRunStats run;
  };
  /// One search wave: broadcast key, match every tile concurrently,
  /// replay traffic, merge hits.
  [[nodiscard]] BankSearchResult search(const std::vector<bool>& key);

  /// Σ of the per-tile CAM lifetime energies.
  [[nodiscard]] Energy compute_energy() const;

 private:
  struct Location {
    std::size_t tile;
    std::size_t row;
  };
  [[nodiscard]] Location locate(std::size_t global_row) const;

  TileFabric& fabric_;
  CamConfig per_tile_;
  std::vector<CrsCam> cams_;
};

}  // namespace memcim
