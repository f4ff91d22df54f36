// TileFabric: grid construction, clock conversion, busy books and the
// fabric-wide single energy accounting path; FabricSession's packet
// contract.
#include "arch/tile_fabric.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/error.h"
#include "common/rng.h"
#include "device/presets.h"

namespace memcim {
namespace {

TileFabricConfig small_fabric() {
  TileFabricConfig cfg;
  cfg.width = 2;
  cfg.height = 2;
  cfg.tile.rows = 4;
  cfg.tile.row_bits = 8;
  cfg.tile.cell = presets::crs_cell();
  return cfg;
}

std::vector<bool> bits_of(std::uint64_t v, std::size_t n) {
  std::vector<bool> bits(n);
  for (std::size_t i = 0; i < n; ++i) bits[i] = (v >> i) & 1u;
  return bits;
}

TEST(TileFabric, GridConstruction) {
  TileFabric fabric(small_fabric());
  EXPECT_EQ(fabric.tiles(), 4u);
  EXPECT_EQ(fabric.host(), 0u);
  EXPECT_EQ(fabric.noc().nodes(), 4u);
  TileFabricConfig bad = small_fabric();
  bad.host = 4;
  EXPECT_THROW(TileFabric{bad}, Error);
  // The NoC period converts between compute time and cycles.
  for (const double cycle :
       {-1e-9, 0.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    bad = small_fabric();
    bad.noc.cycle = Time(cycle);
    EXPECT_THROW(TileFabric{bad}, Error) << "cycle " << cycle << " s";
  }
}

TEST(TileFabric, RejectsAMeshPastTheNodeCeilingAtTheMesh) {
  // A 2^32 × 2^32 grid used to wrap to a 0-router mesh and fail only at
  // the host check; the mesh now refuses the shape itself.
  TileFabricConfig bad = small_fabric();
  bad.width = std::size_t{1} << 32;
  bad.height = std::size_t{1} << 32;
  try {
    const TileFabric fabric(bad);
    ADD_FAILURE() << "a 2^32 x 2^32 fabric was built";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("routers"), std::string::npos)
        << e.what();
  }
}

TEST(TileFabric, ComputeCyclesRoundsUp) {
  TileFabric fabric(small_fabric());  // 1 ns cycle
  EXPECT_EQ(fabric.compute_cycles(Time(0.0)), 0u);
  EXPECT_EQ(fabric.compute_cycles(Time(1e-9)), 1u);
  EXPECT_EQ(fabric.compute_cycles(Time(2.5e-9)), 3u);
  EXPECT_EQ(fabric.compute_cycles(Time(26.6e-9)), 27u);
  // 10^19 cycles still fits a NocCycle; 10^39 and +inf do not.
  EXPECT_EQ(fabric.compute_cycles(Time(1e10)), 10'000'000'000'000'000'000u);
  EXPECT_THROW((void)fabric.compute_cycles(Time(1e30)), Error);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)fabric.compute_cycles(Time(kInf)), Error);
}

TEST(TileFabric, BusyBooksFeedUtilization) {
  TileFabric fabric(small_fabric());
  // One command/response round trip so the makespan is non-zero.
  NocPacket cmd;
  cmd.src = 0;
  cmd.dst = 3;
  cmd.flits = 2;
  const std::size_t h = fabric.noc().inject(cmd);
  NocPacket resp;
  resp.src = 3;
  resp.dst = 0;
  resp.flits = 2;
  resp.after = h;
  resp.release = 20;
  (void)fabric.noc().inject(resp);
  fabric.noc().run_to_completion();

  fabric.note_busy(3, 20);
  EXPECT_EQ(fabric.busy_cycles(3), 20u);
  const double util = fabric.utilization();
  EXPECT_GT(util, 0.0);
  EXPECT_LT(util, 1.0);  // 20 busy cycles / (4 tiles × makespan > 20)
}

TEST(TileFabric, EnergyIsTilesPlusNocExactly) {
  TileFabric fabric(small_fabric());
  // Tile-side work…
  fabric.tile(1).store_row(0, bits_of(0xA5, 8));
  fabric.tile(1).store_row(1, bits_of(0x5A, 8));
  (void)fabric.tile(1).parallel_compare(bits_of(0xA5, 8));
  fabric.tile(2).store_row(0, bits_of(0x0F, 8));
  // …and NoC traffic.
  NocPacket pkt;
  pkt.src = 0;
  pkt.dst = 3;
  pkt.flits = 4;
  pkt.fingerprint = 99;
  (void)fabric.noc().inject(pkt);
  fabric.noc().run_to_completion();

  Energy tiles{0.0};
  for (std::size_t t = 0; t < fabric.tiles(); ++t)
    tiles += fabric.tile(t).stats().energy;
  EXPECT_GT(tiles.value(), 0.0);
  EXPECT_GT(fabric.noc_energy().value(), 0.0);
  EXPECT_EQ(fabric.tile_energy().value(), tiles.value());
  EXPECT_EQ(fabric.energy().value(),
            (fabric.tile_energy() + fabric.noc_energy()).value());
}

// -- FabricSession ------------------------------------------------------------

std::size_t link_id(std::size_t node, NocDir dir) {
  return node * kNocLinkDirs + static_cast<std::size_t>(dir);
}

/// A command/completion pair built packet by packet: the reference the
/// session's round trip must reproduce delivery for delivery.
void inject_reference_pair(MeshNoc& noc, const TileFabricConfig& cfg,
                           const FabricSession::RoundTrip& trip,
                           NocCycle start) {
  NocPacket cmd;
  cmd.src = cfg.host;
  cmd.dst = trip.tile;
  cmd.flits = flits_for_bits(trip.cmd_bits, cfg.noc);
  cmd.tag = trip.tag;
  cmd.release = start;
  cmd.fingerprint = splitmix64(trip.cmd_seed);
  const std::size_t cmd_handle = noc.inject(cmd);
  NocPacket resp;
  resp.src = trip.tile;
  resp.dst = cfg.host;
  resp.flits = flits_for_bits(trip.resp_bits, cfg.noc);
  resp.tag = trip.tag + 1;
  resp.after = cmd_handle;
  resp.release = trip.compute_cycles;
  resp.fingerprint = splitmix64(trip.resp_seed);
  (void)noc.inject(resp);
}

TEST(FabricSession, RoundTripInjectsTheCommandAndItsCompletion) {
  TileFabricConfig cfg = small_fabric();
  cfg.noc.flit_payload_bits = 8;  // many flits per packet
  TileFabric fabric(cfg);
  MeshNoc reference(cfg.width, cfg.height, cfg.noc);
  // Stuck wires on the host → tile 3 → host route make each delivery's
  // corrupted-flit count a function of the packet fingerprints.
  for (MeshNoc* noc : {&fabric.noc(), &reference}) {
    noc->set_link_fault(link_id(0, NocDir::kEast), 2, true);
    noc->set_link_fault(link_id(3, NocDir::kWest), 5, false);
    NocPacket warmup;  // so the session does not start at cycle 0
    warmup.dst = 1;
    warmup.flits = 3;
    (void)noc->inject(warmup);
    noc->run_to_completion();
  }
  const NocCycle start = fabric.noc().now();
  ASSERT_GT(start, 0u);

  FabricSession session(fabric, FabricSession::ShardColumn::kTile);
  NocCycle busy = 0;
  for (std::uint64_t i = 0; i < 6; ++i) {
    const FabricSession::RoundTrip trip{.tile = 3,
                                        .tag = 10 + 2 * i,
                                        .cmd_bits = 100 + 8 * i,
                                        .resp_bits = 60,
                                        .compute_cycles = 20 + i,
                                        .cmd_seed = 0xC0DE + i,
                                        .resp_seed = 0xD0E5 + i};
    EXPECT_EQ(session.round_trip(trip), 2 * i + 2);  // the completion
    inject_reference_pair(reference, cfg, trip, start);
    busy += trip.compute_cycles;
  }
  (void)session.run();
  reference.run_to_completion();
  EXPECT_EQ(fabric.busy_cycles(3), busy);

  const std::vector<NocDelivery>& got = fabric.noc().deliveries();
  const std::vector<NocDelivery>& want = reference.deliveries();
  ASSERT_EQ(got.size(), 13u);
  ASSERT_EQ(want.size(), got.size());
  bool corruption_varies = false;
  for (std::size_t h = 1; h < got.size(); ++h) {
    EXPECT_EQ(got[h].tag, want[h].tag);
    EXPECT_EQ(got[h].src, want[h].src);
    EXPECT_EQ(got[h].dst, want[h].dst);
    EXPECT_EQ(got[h].flits, want[h].flits);
    EXPECT_EQ(got[h].released, want[h].released);
    EXPECT_EQ(got[h].delivered, want[h].delivered);
    EXPECT_EQ(got[h].corrupted_flits, want[h].corrupted_flits);
    EXPECT_EQ(got[h].undetected_corrupted_flits,
              want[h].undetected_corrupted_flits);
    corruption_varies =
        corruption_varies || got[h].corrupted_flits != got[1].corrupted_flits;
  }
  EXPECT_TRUE(corruption_varies);  // the fingerprints are really compared
  // Commands release at the session start and carry even tags; each
  // completion follows its command, compute cycles after its delivery.
  for (std::uint64_t i = 0; i < 6; ++i) {
    const NocDelivery& cmd = got[2 * i + 1];
    const NocDelivery& resp = got[2 * i + 2];
    EXPECT_EQ(cmd.released, start);
    EXPECT_EQ(cmd.tag, 10 + 2 * i);
    EXPECT_EQ(cmd.flits, flits_for_bits(100 + 8 * i, cfg.noc));
    EXPECT_EQ(resp.tag, cmd.tag + 1);
    EXPECT_EQ(resp.released, cmd.delivered + 20 + i);
  }
}

TEST(FabricSession, ChainedRoundTripWaitsForThePreviousCompletion) {
  TileFabric fabric(small_fabric());
  FabricSession session(fabric, FabricSession::ShardColumn::kTile);
  const std::size_t first = session.round_trip(
      {.tile = 2, .tag = 0, .cmd_bits = 64, .resp_bits = 64,
       .compute_cycles = 12});
  const std::size_t second = session.round_trip(
      {.tile = 2, .tag = 2, .cmd_bits = 64, .resp_bits = 64,
       .compute_cycles = 7, .after = first});
  const FabricSession::Books books = session.run();

  const std::vector<NocDelivery>& d = fabric.noc().deliveries();
  ASSERT_EQ(first, 1u);
  ASSERT_EQ(second, 3u);
  EXPECT_EQ(d[2].released, d[1].delivered);  // next wave after the result
  EXPECT_EQ(d[3].released, d[2].delivered + 7);
  EXPECT_EQ(books.makespan, d[3].delivered);
  EXPECT_EQ(fabric.busy_cycles(2), 19u);
}

TEST(FabricSession, BackToBackSessionsCountFromTheirOwnStart) {
  const auto trip = [](std::size_t tile) {
    return FabricSession::RoundTrip{.tile = tile,
                                    .tag = 2 * tile,
                                    .cmd_bits = 96,
                                    .resp_bits = 160,
                                    .compute_cycles = 9 + tile};
  };
  // Each session alone on a fresh fabric gives the books to expect.
  const auto alone = [&](std::size_t first_tile) {
    TileFabric fresh(small_fabric());
    FabricSession session(fresh, FabricSession::ShardColumn::kNone);
    for (std::size_t t = first_tile; t < 4; ++t) session.round_trip(trip(t));
    return session.run();
  };

  TileFabric fabric(small_fabric());
  std::vector<FabricSession::Books> books;
  for (std::size_t first_tile = 0; first_tile < 4; first_tile += 2) {
    FabricSession session(fabric, FabricSession::ShardColumn::kNone);
    for (std::size_t t = first_tile; t < 4; ++t) session.round_trip(trip(t));
    books.push_back(session.run());
  }
  for (std::size_t i = 0; i < 2; ++i) {
    const FabricSession::Books want = alone(2 * i);
    EXPECT_EQ(books[i].makespan, want.makespan);
    EXPECT_EQ(books[i].flits, want.flits);
    EXPECT_EQ(books[i].flit_hops, want.flit_hops);
    EXPECT_DOUBLE_EQ(books[i].noc_energy.value(), want.noc_energy.value());
  }
  EXPECT_EQ(books[1].flits, 2 * (flits_for_bits(96, small_fabric().noc) +
                                 flits_for_bits(160, small_fabric().noc)));
  EXPECT_EQ(books[0].flits + books[1].flits, fabric.noc().stats().flits);
}

}  // namespace
}  // namespace memcim
