#include "arch/cim_machine.h"

#include <algorithm>

#include "common/error.h"

namespace memcim {

CimMachine::CimMachine(const CimMachineConfig& config) : config_(config) {
  MEMCIM_CHECK_MSG(config_.tiles > 0, "machine needs at least one tile");
  tiles_.reserve(config_.tiles);
  for (std::size_t i = 0; i < config_.tiles; ++i)
    tiles_.emplace_back(config_.tile);
}

CimMachine::Location CimMachine::locate(std::size_t global_row) const {
  MEMCIM_CHECK_MSG(global_row < capacity_rows(), "global row out of range");
  return {global_row / config_.tile.rows, global_row % config_.tile.rows};
}

CimTile& CimMachine::tile(std::size_t index) {
  MEMCIM_CHECK(index < tiles_.size());
  return tiles_[index];
}

void CimMachine::store(std::size_t global_row, const std::vector<bool>& bits) {
  const Location loc = locate(global_row);
  tiles_[loc.tile].store_row(loc.row, bits);
}

std::vector<bool> CimMachine::load(std::size_t global_row) {
  const Location loc = locate(global_row);
  return tiles_[loc.tile].load_row(loc.row);
}

Energy CimMachine::tile_energy() const {
  Energy total{0.0};
  for (const CimTile& t : tiles_) total += t.stats().energy;
  return total;
}

std::vector<std::size_t> CimMachine::search(const std::vector<bool>& key) {
  std::vector<std::size_t> matches;
  Time worst_tile{0.0};
  for (std::size_t ti = 0; ti < tiles_.size(); ++ti) {
    CimTile& t = tiles_[ti];
    const Time before_latency = t.stats().latency;
    const std::vector<bool> tile_matches = t.parallel_compare(key);
    worst_tile = std::max(worst_tile, t.stats().latency - before_latency);
    for (std::size_t r = 0; r < tile_matches.size(); ++r)
      if (tile_matches[r]) matches.push_back(ti * config_.tile.rows + r);
  }
  stats_.latency += worst_tile + config_.dispatch_latency;
  dispatch_energy_ += config_.dispatch_energy;
  ++stats_.waves;
  stats_.operations += capacity_rows();
  return matches;
}

}  // namespace memcim
