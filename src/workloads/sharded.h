// Sharded execution of the three data-intensive workloads on the
// multi-tile fabric (arch/tile_fabric.h): the paper's Figure 2 scaled
// out, with inter-tile traffic costed by the mesh NoC instead of
// assumed free.
//
// Execution model (all three workloads):
//   * operands/database rows are *resident in the tiles* — the
//     computation-in-memory premise — so the host only ships small
//     command descriptors out and completion descriptors back;
//   * tile compute runs on the process thread pool (one task per
//     shard), then the host↔tile traffic replays in one FabricSession
//     (arch/tile_fabric.h): each completion depends on its command with
//     a release offset equal to the tile's compute time in NoC cycles,
//     so compute and communication overlap exactly as they would in
//     hardware;
//   * every merge walks shards in tile order and every total is
//     re-folded in global item order, so results — including the
//     floating-point cost books — are bitwise identical at any
//     MEMCIM_THREADS setting and reproduce a serial golden replay of
//     the same shard plan (see tests/noc/sharded_golden_test.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/partitioner.h"
#include "arch/tile_fabric.h"
#include "common/rng.h"
#include "logic/cam.h"
#include "workloads/parallel_add.h"

namespace memcim {

/// Fabric-side books of one sharded run (one NoC co-sim session).
struct ShardedRunStats {
  NocCycle makespan = 0;      ///< virtual cycles, first inject → last eject
  Time latency{0.0};          ///< makespan × NoC cycle time
  Energy compute_energy{0.0}; ///< Σ tile-side switching energy of the run
  Energy noc_energy{0.0};     ///< NoC dynamic energy of the run
  std::uint64_t flits = 0;
  std::uint64_t flit_hops = 0;
  double fabric_utilization = 0.0;  ///< Σ tile busy / (tiles · makespan)
  /// Trace id of the run's span tree (0 when telemetry is disabled).
  std::uint64_t trace_id = 0;

  [[nodiscard]] Energy energy() const { return compute_energy + noc_energy; }
};

// -- workload 2: the TC-adder farm (Section III.B.2) --------------------------

struct ShardedAddResult {
  /// Merged books in global op order.  `latency` is the
  /// serial-equivalent compute latency (Σ batch maxima, as a single
  /// farm would book it); the overlapped fabric latency is run.latency.
  ParallelAddResult merged;
  ShardPlan plan;
  ShardedRunStats run;
  /// Per-shard cell-transition windows (index = tile), for differential
  /// checks against a golden replay.
  std::vector<std::uint64_t> shard_transitions;
};

/// Shard `params.operations` additions over every fabric tile in
/// whole-batch units (batch = params.adders, so each op keeps its
/// physical adder slot), run the shards concurrently, replay the
/// command/completion traffic, and merge.  Each tile instantiates the
/// full `params.adders` farm and applies the same farm_hook.  The RNG
/// draw order matches run_parallel_add exactly.
[[nodiscard]] ShardedAddResult sharded_parallel_add(
    TileFabric& fabric, const ParallelAddParams& params,
    const CrsCellParams& cell, Rng& rng);

// -- workload 1: DNA k-mer database search (Section III.B.1) ------------------

/// 2-bit-per-base encoding of `text[pos, pos+k)` (A=00, C=01, G=10,
/// T=11, LSB first) — one database row of 2k bits.
[[nodiscard]] std::vector<bool> encode_kmer(const std::string& text,
                                            std::size_t pos, std::size_t k);

struct ShardedSearchResult {
  /// matches[q] = global database rows equal to queries[q], ascending.
  std::vector<std::vector<std::size_t>> matches;
  ShardedRunStats run;
};

/// Store `database` rows across the fabric tiles (row-major fill, so
/// global row = tile · rows_per_tile + local row) and match every query
/// against every row.  database.size() must equal
/// fabric.tiles() · tile.rows and each word must be row_bits wide.
/// Queries execute as host-coordinated waves: tile t starts query q+1
/// only after its query-q completion reached the host.
[[nodiscard]] ShardedSearchResult sharded_kmer_search(
    TileFabric& fabric, const std::vector<std::vector<bool>>& database,
    const std::vector<std::vector<bool>>& queries);

// -- workload 3: the CAM bank (Section IV.C) ----------------------------------

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
