#include "serving/dispatcher.h"

#include "arch/partitioner.h"
#include "common/error.h"
#include "telemetry/attribution.h"
#include "workloads/parallel_add.h"

namespace memcim::serving {

namespace {

/// Command/completion descriptor overhead: opcode + window tag +
/// checksum, on top of the request payload bits.
constexpr std::size_t kDescriptorBits = 64;

telemetry::SpanSite& dispatch_site() {
  static telemetry::SpanSite site("serving.dispatch");
  return site;
}

telemetry::SpanSite& shard_site() {
  static telemetry::SpanSite site("serving.shard_compute");
  return site;
}

/// What one tile's share of a window cost: its compute latency (the
/// completion's release), energy and device pulses.
struct TileBooks {
  Time latency{0.0};
  Energy energy{0.0};
  std::uint64_t pulses = 0;
};

/// One tile's command/completion pair of a window: tags follow the
/// tile, and the completion's fingerprint seed is the command's, salted.
void window_round_trip(FabricSession& session, const TileFabric& fabric,
                       std::size_t tile, std::size_t cmd_bits,
                       std::size_t resp_bits, Time compute,
                       std::uint64_t seed) {
  session.round_trip({.tile = tile, .tag = 2 * tile, .cmd_bits = cmd_bits,
                      .resp_bits = resp_bits,
                      .compute_cycles = fabric.compute_cycles(compute),
                      .cmd_seed = seed, .resp_seed = seed ^ 0xFEEDull});
}

}  // namespace

BatchDispatcher::BatchDispatcher(
    TileFabric& fabric, const ServingWorkloadConfig& config,
    const std::vector<std::vector<bool>>& kmer_database,
    const std::vector<std::vector<bool>>& cam_rows)
    : fabric_(fabric), config_(config), cam_rows_(cam_rows.size()) {
  MEMCIM_CHECK_MSG(config_.add_width >= 1 && config_.add_width <= 63,
                   "serving add_width must be 1..63");
  MEMCIM_CHECK(config_.adders_per_tile >= 1);

  const std::size_t tiles = fabric_.tiles();
  const std::size_t rows = fabric_.config().tile.rows;
  const std::size_t row_bits = fabric_.config().tile.row_bits;
  MEMCIM_CHECK_MSG(kmer_database.size() == tiles * rows,
                   "k-mer database must exactly fill the fabric ("
                       << tiles * rows << " rows)");
  for (std::size_t r = 0; r < kmer_database.size(); ++r) {
    MEMCIM_CHECK(kmer_database[r].size() == row_bits);
    fabric_.tile(r / rows).store_row(r % rows, kmer_database[r]);
  }

  MEMCIM_CHECK_MSG(cam_rows.size() <= tiles * config_.cam.rows,
                   "CAM rows exceed the bank capacity");
  cams_.reserve(tiles);
  for (std::size_t t = 0; t < tiles; ++t) cams_.emplace_back(config_.cam);
  for (std::size_t r = 0; r < cam_rows.size(); ++r) {
    MEMCIM_CHECK(cam_rows[r].size() == config_.cam.word_bits);
    cams_[r / config_.cam.rows].write_row(r % config_.cam.rows, cam_rows[r]);
  }
}

BatchExecution BatchDispatcher::execute(const Batch& batch) {
  MEMCIM_CHECK_MSG(!batch.requests.empty(), "cannot execute an empty batch");
  MEMCIM_CHECK(batch.requests.size() <= kPackedLanes);
  // The batch executes under the first request's trace context (the
  // window's root); every response still echoes its own request's
  // trace id, so per-request causality survives coalescing.
  const telemetry::TraceContextScope scope(
      batch.requests.front().trace.valid()
          ? batch.requests.front().trace
          : telemetry::current_trace_context());
  telemetry::Span span(dispatch_site());

  BatchExecution out;
  out.responses.resize(batch.requests.size());
  for (std::size_t i = 0; i < batch.requests.size(); ++i) {
    const Request& r = batch.requests[i];
    Response& resp = out.responses[i];
    resp.id = r.id;
    resp.cls = r.cls;
    resp.arrival = r.arrival;
    resp.batch_seq = batch.seq;
    resp.batch_lanes = static_cast<std::uint32_t>(batch.requests.size());
    resp.trace_id = r.trace.trace_id;
  }

  // One NoC session per window: compute, then every tile's round trip.
  FabricSession session(fabric_, FabricSession::ShardColumn::kNone);
  switch (batch.cls) {
    case RequestClass::kKmerQuery:
      execute_kmer(batch, session, out);
      break;
    case RequestClass::kCamSearch:
      execute_cam(batch, session, out);
      break;
    case RequestClass::kAddition:
      execute_add(batch, session, out);
      break;
  }
  const FabricSession::Books books = session.run();
  out.service_cycles = books.makespan;
  out.flits = books.flits;
  out.noc_energy = books.noc_energy;
  ++dispatched_batches_;
  return out;
}

void BatchDispatcher::execute_kmer(const Batch& batch, FabricSession& session,
                                   BatchExecution& out) {
  const std::size_t tiles = fabric_.tiles();
  const std::size_t rows = fabric_.config().tile.rows;
  const std::size_t row_bits = fabric_.config().tile.row_bits;
  const std::size_t queries = batch.requests.size();
  for (const Request& r : batch.requests)
    MEMCIM_CHECK_MSG(r.key.size() == row_bits,
                     "k-mer query key must be row_bits wide");

  // Compute: every tile matches the whole window against its rows.  In
  // tile order, a query's matches append in ascending global row
  // (tile · rows + local row).
  std::vector<TileBooks> books(tiles);
  for (std::size_t t = 0; t < tiles; ++t) {
    const FabricSession::TileCompute compute(session, t, shard_site());
    CimTile& tile = fabric_.tile(t);
    const Time l0 = tile.stats().latency;
    const Energy e0 = tile.stats().energy;
    for (std::size_t q = 0; q < queries; ++q) {
      const std::vector<bool> hit =
          tile.parallel_compare(batch.requests[q].key);
      std::vector<std::size_t>& matches = out.responses[q].matches;
      for (std::size_t r = 0; r < rows; ++r)
        if (hit[r]) matches.push_back(t * rows + r);
    }
    books[t].latency = tile.stats().latency - l0;
    books[t].energy = tile.stats().energy - e0;
  }

  // Traffic: one command (all Q keys) and one completion (Q match
  // bitmaps) per tile, completion released after the tile's compute.
  const std::size_t cmd_bits = kDescriptorBits + queries * row_bits;
  const std::size_t resp_bits = kDescriptorBits + queries * rows;
  for (std::size_t t = 0; t < tiles; ++t) {
    window_round_trip(session, fabric_, t, cmd_bits, resp_bits,
                      books[t].latency, 0x5E4Bull ^ (batch.seq << 8) ^ t);
    out.compute_energy += books[t].energy;
    session.charge(telemetry::AttrLayer::kCrossbar, t, books[t].energy);
  }
}

void BatchDispatcher::execute_cam(const Batch& batch, FabricSession& session,
                                  BatchExecution& out) {
  const std::size_t tiles = fabric_.tiles();
  const std::size_t rows = config_.cam.rows;
  const std::size_t queries = batch.requests.size();
  for (const Request& r : batch.requests)
    MEMCIM_CHECK_MSG(r.key.size() == config_.cam.word_bits,
                     "CAM search key must be word_bits wide");

  std::vector<TileBooks> books(tiles);
  for (std::size_t t = 0; t < tiles; ++t) {
    const FabricSession::TileCompute compute(session, t, shard_site());
    for (std::size_t q = 0; q < queries; ++q) {
      const CamSearchResult found = cams_[t].search(batch.requests[q].key);
      books[t].latency += found.latency;
      books[t].energy += found.energy;
      std::vector<std::size_t>& matches = out.responses[q].matches;
      for (const std::size_t r : found.matching_rows)
        matches.push_back(t * rows + r);
    }
  }

  const std::size_t cmd_bits = kDescriptorBits + queries * config_.cam.word_bits;
  const std::size_t resp_bits = kDescriptorBits + queries * rows;
  for (std::size_t t = 0; t < tiles; ++t) {
    window_round_trip(session, fabric_, t, cmd_bits, resp_bits,
                      books[t].latency, 0xCA4Bull ^ (batch.seq << 8) ^ t);
    out.compute_energy += books[t].energy;
    session.charge(telemetry::AttrLayer::kLogic, t, books[t].energy);
  }
}

void BatchDispatcher::execute_add(const Batch& batch, FabricSession& session,
                                  BatchExecution& out) {
  const std::size_t tiles = fabric_.tiles();
  const std::size_t ops = batch.requests.size();
  const std::uint64_t mask =
      (std::uint64_t{1} << config_.add_width) - 1;
  for (const Request& r : batch.requests)
    MEMCIM_CHECK_MSG((r.add_a | r.add_b) <= mask,
                     "addition operands exceed add_width");

  // Batch-aligned shards keep each op's physical adder slot, exactly
  // like the sharded workload layer.
  const ShardPlan plan =
      Partitioner::batch_aligned(ops, tiles, config_.adders_per_tile);
  ParallelAddParams params;
  params.width = config_.add_width;
  params.adders = config_.adders_per_tile;
  std::vector<TileBooks> books(tiles);
  std::vector<std::uint64_t> a, b;  // one shard's operands
  for (const Shard& s : plan.shards) {
    if (s.empty()) continue;
    const FabricSession::TileCompute compute(session, s.tile, shard_site());
    a.clear();
    b.clear();
    for (std::size_t i = s.begin; i < s.end; ++i) {
      a.push_back(batch.requests[i].add_a);
      b.push_back(batch.requests[i].add_b);
    }
    params.operations = s.size();
    const ParallelAddResult r =
        run_parallel_add_ops(params, fabric_.config().tile.cell, a, b);
    MEMCIM_CHECK(r.mismatches == 0);
    for (std::size_t i = 0; i < s.size(); ++i)
      out.responses[s.begin + i].sum = r.sums[i];
    books[s.tile] = {r.latency, r.total_energy, r.total_pulses};
  }

  const std::size_t w = config_.add_width;
  for (const Shard& s : plan.shards) {
    if (s.empty()) continue;
    const TileBooks& tile = books[s.tile];
    window_round_trip(session, fabric_, s.tile,
                      kDescriptorBits + s.size() * 2 * w,
                      kDescriptorBits + s.size() * w, tile.latency,
                      0xADD0ull ^ (batch.seq << 8) ^ s.tile);
    out.compute_energy += tile.energy;
    session.charge(telemetry::AttrLayer::kLogic, s.tile, tile.energy,
                   tile.pulses);
  }
}

}  // namespace memcim::serving
