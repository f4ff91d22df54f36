#include "workloads/sharded.h"

#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "telemetry/attribution.h"
#include "telemetry/telemetry.h"
#include "workloads/dna.h"

namespace memcim {

namespace {

/// Command/completion descriptors: opcode + range/tag + checksum.
constexpr std::size_t kDescriptorBits = 128;

/// The trace context a sharded run executes under: the caller's when
/// one is already active, otherwise a fresh root (one trace per run).
telemetry::TraceContext run_root_context() {
  const telemetry::TraceContext current = telemetry::current_trace_context();
  return current.valid() ? current : telemetry::new_root_context();
}

/// The shard-compute span site shared by all three workloads: one span
/// per (tile, shard) task, parented under the workload span and tagged
/// with the tile by FabricSession::TileCompute.
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

/// Merge per-shard farm results in tile order, re-folding every total
/// in global op order — the fold a serial execution of the same plan
/// would produce, bit for bit.
ParallelAddResult merge_add_shards(
    const ShardPlan& plan, const std::vector<ParallelAddResult>& per_shard) {
  ParallelAddResult merged;
  merged.sums.assign(plan.items, 0);
  merged.op_energy.assign(plan.items, 0.0);
  for (const Shard& s : plan.shards) {
    if (s.empty()) continue;
    const ParallelAddResult& r = per_shard[s.tile];
    MEMCIM_CHECK(r.sums.size() == s.size() && r.op_energy.size() == s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
      merged.sums[s.begin + i] = r.sums[i];
      merged.op_energy[s.begin + i] = r.op_energy[i];
    }
    merged.total_pulses += r.total_pulses;
    merged.mismatches += r.mismatches;
    merged.transitions += r.transitions;
    merged.latency += r.latency;
  }
  for (std::size_t op = 0; op < plan.items; ++op)
    merged.total_energy += Energy(merged.op_energy[op]);
  return merged;
}

/// Execute one shard on a fresh full-size farm.
ParallelAddResult run_add_shard(const Shard& s,
                               const ParallelAddParams& params,
                               const CrsCellParams& cell,
                               const std::vector<std::uint64_t>& op_a,
                               const std::vector<std::uint64_t>& op_b) {
  ParallelAddParams tile_params = params;
  tile_params.operations = s.size();
  tile_params.record_per_op = true;
  const std::vector<std::uint64_t> a(op_a.begin() + static_cast<std::ptrdiff_t>(s.begin),
                                     op_a.begin() + static_cast<std::ptrdiff_t>(s.end));
  const std::vector<std::uint64_t> b(op_b.begin() + static_cast<std::ptrdiff_t>(s.begin),
                                     op_b.begin() + static_cast<std::ptrdiff_t>(s.end));
  return run_parallel_add_ops(tile_params, cell, a, b);
}

}  // namespace

ShardedAddResult sharded_parallel_add(TileFabric& fabric,
                                      const ParallelAddParams& params,
                                      const CrsCellParams& cell, Rng& rng) {
  MEMCIM_CHECK(params.operations > 0 && params.adders > 0);
  MEMCIM_CHECK(params.width >= 1 && params.width <= 63);
  static telemetry::SpanSite span_site("workload.sharded_add");
  const telemetry::TraceContextScope root_scope(run_root_context());
  telemetry::Span span(span_site);
  FabricSession session(fabric, FabricSession::ShardColumn::kTile);

  // Identical draw order to run_parallel_add: the sharded run consumes
  // the same RNG stream as its single-farm counterpart.
  const std::uint64_t max_operand = (std::uint64_t{1} << params.width) - 1;
  std::vector<std::uint64_t> op_a(params.operations), op_b(params.operations);
  for (std::size_t op = 0; op < params.operations; ++op) {
    op_a[op] = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(max_operand)));
    op_b[op] = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(max_operand)));
  }

  const ShardPlan plan = Partitioner::batch_aligned(
      params.operations, fabric.tiles(), params.adders);

  // Compute phase: one task per shard, chunks write disjoint slots.
  std::vector<ParallelAddResult> per_shard(fabric.tiles());
  parallel_for(0, fabric.tiles(), 1, [&](std::size_t t) {
    const Shard& s = plan.shards[t];
    if (s.empty()) return;
    const FabricSession::TileCompute compute(session, t, shard_compute_site());
    per_shard[t] = run_add_shard(s, params, cell, op_a, op_b);
  });

  ShardedAddResult out;
  out.plan = plan;
  out.merged = merge_add_shards(plan, per_shard);
  out.shard_transitions.assign(fabric.tiles(), 0);
  for (std::size_t t = 0; t < fabric.tiles(); ++t)
    out.shard_transitions[t] = per_shard[t].transitions;

  // Traffic replay: command out, completion back after the shard's
  // compute time.  Results stay resident in the tiles (the CIM point),
  // so both descriptors are small.
  for (std::size_t t = 0; t < fabric.tiles(); ++t) {
    const Shard& s = plan.shards[t];
    if (s.empty()) continue;
    const ParallelAddResult& r = per_shard[t];
    session.round_trip({.tile = t, .tag = 2 * t, .cmd_bits = kDescriptorBits,
                        .resp_bits = kDescriptorBits,
                        .compute_cycles = fabric.compute_cycles(r.latency),
                        .cmd_seed = 0xADD0ull ^ (t << 8) ^ s.begin,
                        .resp_seed = 0xD0BEull ^ (t << 8) ^ s.end});
    session.charge(telemetry::AttrLayer::kLogic, t, r.total_energy,
                   r.total_pulses);
  }
  finish_run(fabric, session, out.run);
  out.run.compute_energy = out.merged.total_energy;
  return out;
}

std::vector<bool> encode_kmer(const std::string& text, std::size_t pos,
                              std::size_t k) {
  MEMCIM_CHECK_MSG(pos + k <= text.size(), "k-mer window past end of text");
  std::vector<bool> bits(2 * k);
  for (std::size_t i = 0; i < k; ++i) {
    const auto code =
        static_cast<std::uint8_t>(nucleotide_from_char(text[pos + i]));
    bits[2 * i] = (code & 1u) != 0;
    bits[2 * i + 1] = (code >> 1) != 0;
  }
  return bits;
}

ShardedSearchResult sharded_kmer_search(
    TileFabric& fabric, const std::vector<std::vector<bool>>& database,
    const std::vector<std::vector<bool>>& queries) {
  const std::size_t tiles = fabric.tiles();
  const std::size_t rows = fabric.config().tile.rows;
  const std::size_t row_bits = fabric.config().tile.row_bits;
  MEMCIM_CHECK_MSG(database.size() == tiles * rows,
                   "database must exactly fill the fabric");
  static telemetry::SpanSite span_site("workload.sharded_search");
  const telemetry::TraceContextScope root_scope(run_root_context());
  telemetry::Span span(span_site);
  FabricSession session(fabric, FabricSession::ShardColumn::kTile);

  // Distribute the database row-major (setup, not part of the run).
  for (std::size_t r = 0; r < database.size(); ++r) {
    MEMCIM_CHECK(database[r].size() == row_bits);
    fabric.tile(r / rows).store_row(r % rows, database[r]);
  }

  // Compute phase: each tile matches every query, in query order.
  std::vector<std::vector<std::vector<bool>>> tile_matches(tiles);
  std::vector<std::vector<Time>> tile_latency(tiles);
  std::vector<Energy> tile_delta(tiles, Energy{0.0});
  parallel_for(0, tiles, 1, [&](std::size_t t) {
    const FabricSession::TileCompute compute(session, t, shard_compute_site());
    CimTile& tile = fabric.tile(t);
    const Energy e0 = tile.stats().energy;
    tile_matches[t].reserve(queries.size());
    tile_latency[t].reserve(queries.size());
    for (const std::vector<bool>& q : queries) {
      const Time l0 = tile.stats().latency;
      tile_matches[t].push_back(tile.parallel_compare(q));
      tile_latency[t].push_back(tile.stats().latency - l0);
    }
    tile_delta[t] = tile.stats().energy - e0;
  });

  ShardedSearchResult out;
  out.matches.resize(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q)
    for (std::size_t t = 0; t < tiles; ++t)
      for (std::size_t r = 0; r < rows; ++r)
        if (tile_matches[t][q][r]) out.matches[q].push_back(t * rows + r);

  // Traffic: host-coordinated waves per tile — the query-(q+1) command
  // releases only once the query-q completion reached the host.
  for (std::size_t t = 0; t < tiles; ++t) {
    std::size_t prev = kNoPacket;
    for (std::size_t q = 0; q < queries.size(); ++q)
      prev = session.round_trip(
          {.tile = t, .tag = 2 * (t * queries.size() + q),
           .cmd_bits = 64 + row_bits, .resp_bits = 64 + rows,
           .compute_cycles = fabric.compute_cycles(tile_latency[t][q]),
           .cmd_seed = 0x5EA4ull ^ (t << 16) ^ q,
           .resp_seed = 0x4E5Full ^ (t << 16) ^ q, .after = prev});
    session.charge(telemetry::AttrLayer::kCrossbar, t, tile_delta[t]);
  }
  finish_run(fabric, session, out.run);
  for (std::size_t t = 0; t < tiles; ++t)
    out.run.compute_energy += tile_delta[t];
  return out;
}

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
