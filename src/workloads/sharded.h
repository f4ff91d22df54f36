// Sharded execution of the paper's two data-intensive workloads on the
// multi-tile fabric (arch/tile_fabric.h): the paper's Figure 2 scaled
// out, with inter-tile traffic costed by the mesh NoC instead of
// assumed free.
//
// Execution model (both workloads):
//   * operands/database rows are *resident in the tiles* — the
//     computation-in-memory premise — so the host only ships small
//     command descriptors out and completion descriptors back;
//   * tile compute runs on the process thread pool (one task per
//     shard), then the host↔tile traffic replays in one FabricSession
//     (arch/tile_fabric.h): each completion depends on its command with
//     a release offset equal to the tile's compute time in NoC cycles,
//     so compute and communication overlap exactly as they would in
//     hardware;
//   * each shard task writes its own slice of the merged per-item
//     results (shards are contiguous and disjoint); after the join only
//     the order-fixed folds run serially — per-shard books in tile
//     order, every floating-point total re-folded in global item order
//     — so results are bitwise identical at any MEMCIM_THREADS setting
//     and reproduce a serial golden replay of the same shard plan (see
//     tests/noc/sharded_golden_test.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/partitioner.h"
#include "arch/tile_fabric.h"
#include "common/rng.h"
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
/// full `params.adders` farm and applies the same farm_hook.  The
/// operands come from draw_add_operands, as in run_parallel_add, so
/// both leave `rng` at the same stream position.
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

}  // namespace memcim
