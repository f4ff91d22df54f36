// The multi-tile CIM fabric: a width × height grid of CimTiles, one
// per mesh-NoC router, plus a host/controller attachment point — the
// scaled-out form of Figure 2 with the inter-tile communication
// actually costed instead of assumed.
//
// Responsibilities are deliberately narrow:
//   * own the tiles and the MeshNoc,
//   * convert tile compute time to NoC cycles (the two sides share the
//     virtual clock through NocParams::cycle),
//   * keep per-tile busy-cycle books and derive fabric utilization,
//   * expose the single energy accounting path — Σ live tile books +
//     NoC dynamic energy, each counted exactly once (the CimMachine
//     reconciliation rule applied fabric-wide).
//
// FabricSession (below) is the one producer of host↔tile packets; what
// they carry stays with its callers (src/workloads/sharded.h,
// src/serving/dispatcher.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/cim_tile.h"
#include "noc/mesh.h"
#include "telemetry/attribution.h"
#include "telemetry/telemetry.h"

namespace memcim {

struct TileFabricConfig {
  std::size_t width = 2;   ///< mesh columns
  std::size_t height = 2;  ///< mesh rows
  /// Router the host/controller NIC hangs off (command source, result
  /// sink).  Row-major node id.
  std::size_t host = 0;
  CimTileConfig tile{};
  NocParams noc{};
};

class TileFabric {
 public:
  explicit TileFabric(const TileFabricConfig& config);

  [[nodiscard]] const TileFabricConfig& config() const { return config_; }
  [[nodiscard]] std::size_t tiles() const { return noc_.nodes(); }
  [[nodiscard]] std::size_t host() const { return config_.host; }

  [[nodiscard]] CimTile& tile(std::size_t index);
  [[nodiscard]] const CimTile& tile(std::size_t index) const;
  [[nodiscard]] MeshNoc& noc() { return noc_; }
  [[nodiscard]] const MeshNoc& noc() const { return noc_; }

  /// Tile compute time in whole NoC cycles, rounded up — the release
  /// offset a result packet carries relative to its command's arrival.
  /// Throws Error unless t is finite, non-negative and under 2^64 cycles.
  [[nodiscard]] NocCycle compute_cycles(Time t) const;

  // -- per-tile busy books ----------------------------------------------------
  /// Credit `cycles` of compute occupancy to a tile (FabricSession
  /// calls this once per round trip).  `shard` keys the attribution
  /// book's arch row (occupancy as virtual nanoseconds);
  /// telemetry::kNoShard marks unsharded occupancy.
  void note_busy(std::size_t tile, NocCycle cycles,
                 std::uint32_t shard = 0xFFFFFFFFu);
  [[nodiscard]] NocCycle busy_cycles(std::size_t tile) const;
  /// Mean tile occupancy over the fabric makespan: Σ busy /
  /// (tiles · makespan); 0 before any traffic completes.
  [[nodiscard]] double utilization() const;

  // -- single energy accounting path ------------------------------------------
  /// Σ of the live per-tile cost books.
  [[nodiscard]] Energy tile_energy() const;
  [[nodiscard]] Energy noc_energy() const { return noc_.dynamic_energy(); }
  [[nodiscard]] Energy energy() const { return tile_energy() + noc_energy(); }

  /// Export tile.busy_cycles / fabric.utilization and the NoC metric
  /// set.  Call once per finished run (idempotent counters would double
  /// count).
  void record_telemetry() const;

 private:
  TileFabricConfig config_;
  MeshNoc noc_;
  std::vector<CimTile> tiles_;
  std::vector<NocCycle> busy_;
};

/// One NoC session of host↔tile round trips, opened under the
/// dispatching span: commands trace under that span, completions under
/// their tile's TileCompute span, and every attribution row the session
/// charges carries the shard column fixed at construction.
class FabricSession {
 public:
  /// kTile: a sharded run, one shard per tile.  kNone:
  /// telemetry::kNoShard, for work that is not shard-scoped (serving).
  enum class ShardColumn : std::uint8_t { kTile, kNone };

  FabricSession(TileFabric& fabric, ShardColumn column);
  FabricSession(const FabricSession&) = delete;
  FabricSession& operator=(const FabricSession&) = delete;

  /// One tile's compute (open one per tile with work): tags the thread
  /// with the tile and opens the span its completions trace under.
  class TileCompute {
   public:
    TileCompute(FabricSession& session, std::size_t tile,
                telemetry::SpanSite& site);

   private:
    telemetry::TileScope tile_scope_;
    telemetry::Span span_;
  };

  struct RoundTrip {
    std::size_t tile = 0;
    std::uint64_t tag = 0;  ///< the command's; the completion's is tag + 1
    std::size_t cmd_bits = 0;
    std::size_t resp_bits = 0;
    NocCycle compute_cycles = 0;  ///< completion release after delivery
    std::uint64_t cmd_seed = 0;   ///< fingerprint = splitmix64(seed)
    std::uint64_t resp_seed = 0;
    /// Completion handle the command waits for; kNoPacket releases it
    /// at the session start.
    std::size_t after = kNoPacket;
  };
  /// Inject the command and its dependent completion, credit the tile's
  /// busy cycles and charge the NoC row; returns the completion handle.
  std::size_t round_trip(const RoundTrip& trip);

  /// Book compute costs; nonzero `pulses` go to the device layer.
  void charge(telemetry::AttrLayer layer, std::size_t tile, Energy energy,
              std::uint64_t pulses = 0) const;

  /// The session's NoC books, counted from its construction.
  struct Books {
    NocCycle makespan = 0;
    Energy noc_energy{0.0};
    std::uint64_t flits = 0;
    std::uint64_t flit_hops = 0;
  };
  Books run();

 private:
  [[nodiscard]] std::uint32_t shard(std::size_t tile) const;

  TileFabric& fabric_;
  ShardColumn column_;
  telemetry::TraceContext ctx_;
  NocCycle start_;
  Energy start_energy_;
  NocStats start_stats_;
  std::vector<telemetry::TraceContext> tile_ctx_;  ///< per TileCompute
};

}  // namespace memcim
