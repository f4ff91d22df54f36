#include "support/sharded_cam_bank.h"

#include "common/error.h"
#include "common/parallel.h"
#include "telemetry/attribution.h"
#include "telemetry/telemetry.h"

namespace memcim {

namespace {

// The run scaffolding of src/workloads/sharded.cpp: a fresh root trace
// unless one is active, the shared shard-compute span site, and the
// session's books copied into ShardedRunStats.
telemetry::TraceContext run_root_context() {
  const telemetry::TraceContext current = telemetry::current_trace_context();
  return current.valid() ? current : telemetry::new_root_context();
}

telemetry::SpanSite& shard_compute_site() {
  static telemetry::SpanSite site("workload.shard_compute");
  return site;
}

void finish_run(TileFabric& fabric, FabricSession& session,
                ShardedRunStats& run) {
  const FabricSession::Books books = session.run();
  run.makespan = books.makespan;
  run.latency =
      Time(fabric.config().noc.cycle.value() * static_cast<double>(run.makespan));
  run.noc_energy = books.noc_energy;
  run.flits = books.flits;
  run.flit_hops = books.flit_hops;
  run.fabric_utilization = fabric.utilization();
  run.trace_id = telemetry::current_trace_context().trace_id;
}

}  // namespace

ShardedCamBank::ShardedCamBank(TileFabric& fabric, const CamConfig& per_tile)
    : fabric_(fabric), per_tile_(per_tile) {
  cams_.reserve(fabric_.tiles());
  for (std::size_t t = 0; t < fabric_.tiles(); ++t)
    cams_.emplace_back(per_tile_);
}

CrsCam& ShardedCamBank::cam(std::size_t tile) {
  MEMCIM_CHECK(tile < cams_.size());
  return cams_[tile];
}

ShardedCamBank::Location ShardedCamBank::locate(std::size_t global_row) const {
  MEMCIM_CHECK_MSG(global_row < rows(), "global CAM row out of range");
  return {global_row / per_tile_.rows, global_row % per_tile_.rows};
}

void ShardedCamBank::write_row(std::size_t global_row,
                               const std::vector<bool>& word) {
  const Location loc = locate(global_row);
  cams_[loc.tile].write_row(loc.row, word);
}

void ShardedCamBank::write_row_ternary(std::size_t global_row,
                                       const std::vector<CamBit>& word) {
  const Location loc = locate(global_row);
  cams_[loc.tile].write_row_ternary(loc.row, word);
}

void ShardedCamBank::inject_stuck(std::size_t global_row, std::size_t bit,
                                  bool stuck_one) {
  const Location loc = locate(global_row);
  cams_[loc.tile].inject_stuck(loc.row, bit, stuck_one);
}

ShardedCamBank::BankSearchResult ShardedCamBank::search(
    const std::vector<bool>& key) {
  static telemetry::SpanSite span_site("workload.sharded_cam");
  const telemetry::TraceContextScope root_scope(run_root_context());
  telemetry::Span span(span_site);
  FabricSession session(fabric_, FabricSession::ShardColumn::kTile);

  std::vector<CamSearchResult> per_tile(cams_.size());
  parallel_for(0, cams_.size(), 1, [&](std::size_t t) {
    const FabricSession::TileCompute compute(session, t, shard_compute_site());
    per_tile[t] = cams_[t].search(key);
  });

  BankSearchResult out;
  for (std::size_t t = 0; t < cams_.size(); ++t)
    for (const std::size_t r : per_tile[t].matching_rows)
      out.matching_rows.push_back(t * per_tile_.rows + r);

  for (std::size_t t = 0; t < cams_.size(); ++t) {
    session.round_trip(
        {.tile = t, .tag = 2 * t, .cmd_bits = 64 + per_tile_.word_bits,
         .resp_bits = 64 + per_tile_.rows,
         .compute_cycles = fabric_.compute_cycles(per_tile[t].latency),
         .cmd_seed = 0xCA4Bull ^ (t << 8),
         .resp_seed = 0xB4CAull ^ (t << 8) ^ per_tile[t].matching_rows.size()});
    session.charge(telemetry::AttrLayer::kLogic, t, per_tile[t].energy);
  }
  finish_run(fabric_, session, out.run);
  for (std::size_t t = 0; t < cams_.size(); ++t)
    out.run.compute_energy += per_tile[t].energy;
  return out;
}

Energy ShardedCamBank::compute_energy() const {
  Energy total{0.0};
  for (const CrsCam& c : cams_) total += c.total_energy();
  return total;
}

}  // namespace memcim
