// Batch dispatcher: executes one coalesced request window across the
// tile fabric as one FabricSession (arch/tile_fabric.h), which injects
// every host↔tile packet and costs it on the mesh NoC co-simulation.
//
// The serving data is *resident in the tiles* — the CIM premise — so
// the host ships request payloads out and result descriptors back:
//
//   kKmerQuery — every tile matches the whole query window against its
//     resident database rows (CimTile::parallel_compare per query);
//     one command packet per tile carries all Q keys, one completion
//     carries Q per-row match bitmaps.
//   kCamSearch — per-tile CRS CAMs evaluate the window key by key
//     (CrsCam::search); same one-command/one-completion-per-tile shape.
//   kAddition  — the window is sharded batch-aligned over the tiles'
//     adder farms (run_parallel_add_ops, packed engine); commands
//     carry the operand pairs, completions the sums.
//
// Each class has exactly one compute path.  The CAM and adder paths
// are costed by the device models (CRS CAM cells, CRS TC-adders), whose
// books are the ones Table 2 uses.
//
// A window's tiles compute inline on the calling thread, in tile order:
// a window's per-tile work is a few µs, about what a fork/join on the
// process thread pool costs, so fanning it out did not pay.  Matches
// append in tile order, which is ascending global row.  Only once every
// tile has computed does the traffic replay, in one NoC session where
// each completion releases after its tile's compute time, so compute
// and communication overlap exactly and a window whose compute throws
// injects no packet.  Every output — payloads, service cycles, energy —
// is bitwise deterministic at any MEMCIM_THREADS setting.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/tile_fabric.h"
#include "logic/cam.h"
#include "serving/coalescer.h"
#include "serving/request.h"

namespace memcim::serving {

/// Shape of the resident workload state behind the service.
struct ServingWorkloadConfig {
  /// Addition operand width in bits (1..63, TC-adder contract).
  std::size_t add_width = 32;
  /// Adder farm slots per tile; window shards are aligned to this so
  /// each op keeps its physical slot (see Partitioner::batch_aligned).
  std::size_t adders_per_tile = 16;
  /// Per-tile CAM geometry (rows × word_bits).
  CamConfig cam{};
};

/// What one executed batch reports back to the service loop.
struct BatchExecution {
  /// One response per batch request, in batch (FIFO) order, with the
  /// payload fields filled; the service stamps the timestamps.
  std::vector<Response> responses;
  /// Virtual NoC cycles from first command injection to last
  /// completion ejection — the batch's service time.
  NocCycle service_cycles = 0;
  std::uint64_t flits = 0;
  Energy compute_energy{0.0};
  Energy noc_energy{0.0};
};

class BatchDispatcher {
 public:
  /// `kmer_database` must hold exactly tiles × tile.rows words of
  /// tile.row_bits bits (row-major fill: global row = tile · rows +
  /// local row).  `cam_rows` holds at most tiles × cam.rows words of
  /// cam.word_bits bits, filled tile-major the same way.
  BatchDispatcher(TileFabric& fabric, const ServingWorkloadConfig& config,
                  const std::vector<std::vector<bool>>& kmer_database,
                  const std::vector<std::vector<bool>>& cam_rows);

  [[nodiscard]] const ServingWorkloadConfig& config() const { return config_; }
  [[nodiscard]] std::size_t kmer_rows() const {
    return fabric_.tiles() * fabric_.config().tile.rows;
  }
  [[nodiscard]] std::size_t cam_rows() const { return cam_rows_; }

  /// Execute one coalesced window.  `batch` must be non-empty.
  [[nodiscard]] BatchExecution execute(const Batch& batch);

 private:
  void execute_kmer(const Batch& batch, FabricSession& session,
                    BatchExecution& out);
  void execute_cam(const Batch& batch, FabricSession& session,
                   BatchExecution& out);
  void execute_add(const Batch& batch, FabricSession& session,
                   BatchExecution& out);

  TileFabric& fabric_;
  ServingWorkloadConfig config_;
  std::vector<CrsCam> cams_;
  std::size_t cam_rows_;
  std::uint64_t dispatched_batches_ = 0;
};

}  // namespace memcim::serving
