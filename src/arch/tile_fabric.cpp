#include "arch/tile_fabric.h"

#include <cmath>
#include <string>

#include "common/error.h"
#include "common/rng.h"
#include "telemetry/trace_export.h"

namespace memcim {

TileFabric::TileFabric(const TileFabricConfig& config)
    : config_(config),
      noc_(config.width, config.height, config.noc),
      busy_(config.width * config.height, 0) {
  MEMCIM_CHECK_MSG(config_.host < noc_.nodes(),
                   "host node must sit on the mesh");
  tiles_.reserve(noc_.nodes());
  for (std::size_t i = 0; i < noc_.nodes(); ++i) {
    tiles_.emplace_back(config_.tile);
    telemetry::set_tile_trace_label(
        static_cast<std::uint32_t>(i),
        "tile (" + std::to_string(noc_.x_of(i)) + "," +
            std::to_string(noc_.y_of(i)) + ")");
  }
}

CimTile& TileFabric::tile(std::size_t index) {
  MEMCIM_CHECK(index < tiles_.size());
  return tiles_[index];
}

const CimTile& TileFabric::tile(std::size_t index) const {
  MEMCIM_CHECK(index < tiles_.size());
  return tiles_[index];
}

NocCycle TileFabric::compute_cycles(Time t) const {
  MEMCIM_CHECK(t.value() >= 0.0);
  const double cycles = std::ceil(t.value() / config_.noc.cycle.value());
  // 2^64 is the first cycle count a NocCycle cannot hold; inf fails too.
  MEMCIM_CHECK_MSG(cycles < 0x1p64, t.value() << " s is too many cycles");
  return static_cast<NocCycle>(cycles);
}

void TileFabric::note_busy(std::size_t tile, NocCycle cycles,
                           std::uint32_t shard) {
  MEMCIM_CHECK(tile < busy_.size());
  busy_[tile] += cycles;
  // Occupancy enters the arch attribution row as virtual nanoseconds
  // (cycles × cycle period) — deterministic, unlike wall-clock spans.
  const auto ns = static_cast<std::uint64_t>(
      std::llround(static_cast<double>(cycles) *
                   config_.noc.cycle.value() * 1e9));
  telemetry::attribute_span_ns(telemetry::AttrLayer::kArch,
                               static_cast<std::uint32_t>(tile), shard, ns);
}

NocCycle TileFabric::busy_cycles(std::size_t tile) const {
  MEMCIM_CHECK(tile < busy_.size());
  return busy_[tile];
}

double TileFabric::utilization() const {
  const NocCycle makespan = noc_.makespan();
  if (makespan == 0) return 0.0;
  NocCycle total = 0;
  for (const NocCycle b : busy_) total += b;
  return static_cast<double>(total) /
         (static_cast<double>(tiles()) * static_cast<double>(makespan));
}

Energy TileFabric::tile_energy() const {
  Energy total{0.0};
  for (const CimTile& t : tiles_) total += t.stats().energy;
  return total;
}

FabricSession::FabricSession(TileFabric& fabric, ShardColumn column)
    : fabric_(fabric),
      column_(column),
      ctx_(telemetry::current_trace_context()),
      start_(fabric.noc().now()),
      start_energy_(fabric.noc().dynamic_energy()),
      start_stats_(fabric.noc().stats()),
      tile_ctx_(fabric.tiles()) {}

FabricSession::TileCompute::TileCompute(FabricSession& session,
                                        std::size_t tile,
                                        telemetry::SpanSite& site)
    : tile_scope_(static_cast<std::uint32_t>(tile)), span_(site) {
  MEMCIM_CHECK(tile < session.tile_ctx_.size());
  session.tile_ctx_[tile] = telemetry::current_trace_context();
}

std::uint32_t FabricSession::shard(std::size_t tile) const {
  return column_ == ShardColumn::kTile ? static_cast<std::uint32_t>(tile)
                                       : telemetry::kNoShard;
}

std::size_t FabricSession::round_trip(const RoundTrip& trip) {
  MeshNoc& noc = fabric_.noc();
  const NocParams& params = fabric_.config().noc;
  const NocPacket cmd{.src = fabric_.host(), .dst = trip.tile,
                      .flits = flits_for_bits(trip.cmd_bits, params),
                      .tag = trip.tag,
                      .release = trip.after == kNoPacket ? start_ : 0,
                      .after = trip.after,
                      .fingerprint = splitmix64(trip.cmd_seed),
                      .trace_id = ctx_.trace_id, .parent_span = ctx_.span_id};
  const std::size_t cmd_handle = noc.inject(cmd);
  fabric_.note_busy(trip.tile, trip.compute_cycles, shard(trip.tile));
  const telemetry::TraceContext& tile_ctx = tile_ctx_[trip.tile];
  const NocPacket resp{.src = trip.tile, .dst = fabric_.host(),
                       .flits = flits_for_bits(trip.resp_bits, params),
                       .tag = trip.tag + 1, .release = trip.compute_cycles,
                       .after = cmd_handle,
                       .fingerprint = splitmix64(trip.resp_seed),
                       .trace_id = tile_ctx.trace_id,
                       .parent_span = tile_ctx.span_id};
  const std::size_t resp_handle = noc.inject(resp);

  // The pair's NoC row: exact flits plus the structural per-packet
  // energy that dynamic_energy() integrates.
  if (telemetry::enabled()) {
    const auto t = static_cast<std::uint32_t>(trip.tile);
    telemetry::attribute_flits(t, shard(trip.tile), cmd.flits + resp.flits);
    const Energy e = noc.packet_energy(cmd.src, cmd.dst, cmd.flits) +
                     noc.packet_energy(resp.src, resp.dst, resp.flits);
    telemetry::attribute_energy(telemetry::AttrLayer::kNoc, t,
                                shard(trip.tile), e.value());
  }
  return resp_handle;
}

void FabricSession::charge(telemetry::AttrLayer layer, std::size_t tile,
                           Energy energy, std::uint64_t pulses) const {
  if (!telemetry::enabled()) return;
  const auto t = static_cast<std::uint32_t>(tile);
  telemetry::attribute_energy(layer, t, shard(tile), energy.value());
  if (pulses != 0)
    telemetry::attribute_pulses(telemetry::AttrLayer::kDevice, t, shard(tile),
                                pulses);
}

FabricSession::Books FabricSession::run() {
  MeshNoc& noc = fabric_.noc();
  noc.run_to_completion();
  return {noc.makespan() > start_ ? noc.makespan() - start_ : 0,
          noc.dynamic_energy() - start_energy_,
          noc.stats().flits - start_stats_.flits,
          noc.stats().flit_hops - start_stats_.flit_hops};
}

}  // namespace memcim
