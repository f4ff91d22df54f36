// Cycle-accurate mesh behaviour: XY paths, credit backpressure,
// dependency releases, energy reconstruction and bitwise determinism.
#include "noc/mesh.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/error.h"

namespace memcim {
namespace {

NocParams small_params() {
  NocParams p;
  p.flit_payload_bits = 64;
  p.buffer_flits = 4;
  return p;
}

TEST(MeshNoc, SinglePacketFollowsTheXYPath) {
  MeshNoc noc(4, 3, small_params());
  NocPacket pkt;
  pkt.src = noc.node_at(0, 0);
  pkt.dst = noc.node_at(3, 2);
  pkt.flits = 3;
  pkt.fingerprint = 0x1234;
  (void)noc.inject(pkt);
  noc.run_to_completion();

  const NocDelivery& d = noc.deliveries()[0];
  ASSERT_TRUE(d.done);
  EXPECT_FALSE(d.corrupted());
  const std::size_t hops = 3 + 2;  // |dx| + |dy|
  EXPECT_EQ(noc.stats().flit_hops, hops * 3);
  EXPECT_EQ(noc.stats().ejections, 3u);
  EXPECT_GE(d.latency(), hops);

  // XY: east along row 0, then south down column 3 — exactly those
  // links carry traffic, three flit-cycles each.
  std::vector<bool> expect_busy(noc.link_population(), false);
  auto link_id = [&](std::size_t node, NocDir dir) {
    return node * kNocLinkDirs + static_cast<std::size_t>(dir);
  };
  expect_busy[link_id(noc.node_at(0, 0), NocDir::kEast)] = true;
  expect_busy[link_id(noc.node_at(1, 0), NocDir::kEast)] = true;
  expect_busy[link_id(noc.node_at(2, 0), NocDir::kEast)] = true;
  expect_busy[link_id(noc.node_at(3, 0), NocDir::kSouth)] = true;
  expect_busy[link_id(noc.node_at(3, 1), NocDir::kSouth)] = true;
  for (const NocLinkUse& use : noc.link_utilization()) {
    const std::size_t id = link_id(use.node, use.dir);
    if (expect_busy[id])
      EXPECT_EQ(use.busy_cycles, 3u) << "link " << id;
    else
      EXPECT_EQ(use.busy_cycles, 0u) << "link " << id;
  }
}

TEST(MeshNoc, SelfDeliveryWorks) {
  MeshNoc noc(2, 2, small_params());
  NocPacket pkt;
  pkt.src = 3;
  pkt.dst = 3;
  pkt.flits = 2;
  (void)noc.inject(pkt);
  noc.run_to_completion();
  EXPECT_TRUE(noc.deliveries()[0].done);
  EXPECT_EQ(noc.stats().flit_hops, 0u);  // never leaves the router
  EXPECT_EQ(noc.stats().ejections, 2u);
}

TEST(MeshNoc, DependencyReleasesAfterPredecessorDelivery) {
  MeshNoc noc(3, 1, small_params());
  NocPacket cmd;
  cmd.src = 0;
  cmd.dst = 2;
  cmd.flits = 2;
  const std::size_t cmd_handle = noc.inject(cmd);

  NocPacket resp;
  resp.src = 2;
  resp.dst = 0;
  resp.flits = 1;
  resp.after = cmd_handle;
  resp.release = 10;  // tile computes for 10 cycles
  (void)noc.inject(resp);
  noc.run_to_completion();

  const NocDelivery& c = noc.deliveries()[0];
  const NocDelivery& r = noc.deliveries()[1];
  ASSERT_TRUE(c.done && r.done);
  EXPECT_EQ(r.released, c.delivered + 10);
  EXPECT_GE(r.injected, r.released);
  EXPECT_GT(r.delivered, c.delivered + 10);
}

TEST(MeshNoc, ContentionBackpressuresThroughCredits) {
  NocParams params = small_params();
  params.buffer_flits = 1;  // tiny FIFOs: congestion bites immediately
  MeshNoc noc(4, 1, params);
  // Every west node floods node 3 through the same east chain.
  for (std::size_t src = 0; src < 3; ++src) {
    for (std::size_t burst = 0; burst < 4; ++burst) {
      NocPacket pkt;
      pkt.src = src;
      pkt.dst = 3;
      pkt.flits = 4;
      pkt.tag = src * 10 + burst;
      pkt.fingerprint = pkt.tag;
      (void)noc.inject(pkt);
    }
  }
  noc.run_to_completion();
  EXPECT_GT(noc.stats().credit_stalls, 0u);
  for (const NocDelivery& d : noc.deliveries()) EXPECT_TRUE(d.done);
  EXPECT_EQ(noc.stats().ejections, 12u * 4u);
}

TEST(MeshNoc, IdenticalInjectionsAreBitwiseDeterministic) {
  auto drive = [](MeshNoc& noc) {
    for (std::size_t i = 0; i < 12; ++i) {
      NocPacket pkt;
      pkt.src = i % noc.nodes();
      pkt.dst = (i * 7 + 3) % noc.nodes();
      pkt.flits = 1 + i % 5;
      pkt.tag = i;
      pkt.release = i / 3;
      pkt.fingerprint = 0xABCD + i;
      (void)noc.inject(pkt);
    }
    noc.run_to_completion();
  };
  MeshNoc a(3, 3, small_params());
  MeshNoc b(3, 3, small_params());
  drive(a);
  drive(b);
  ASSERT_EQ(a.deliveries().size(), b.deliveries().size());
  for (std::size_t i = 0; i < a.deliveries().size(); ++i) {
    EXPECT_EQ(a.deliveries()[i].injected, b.deliveries()[i].injected);
    EXPECT_EQ(a.deliveries()[i].delivered, b.deliveries()[i].delivered);
  }
  EXPECT_EQ(a.stats().flit_hops, b.stats().flit_hops);
  EXPECT_EQ(a.stats().credit_stalls, b.stats().credit_stalls);
  EXPECT_EQ(a.stats().cycles, b.stats().cycles);
  EXPECT_EQ(a.makespan(), b.makespan());
  EXPECT_DOUBLE_EQ(a.dynamic_energy().value(), b.dynamic_energy().value());
}

TEST(MeshNoc, DynamicEnergyIsExactlyCountsTimesQuanta) {
  MeshNoc noc(3, 2, small_params());
  for (std::size_t i = 0; i < 6; ++i) {
    NocPacket pkt;
    pkt.src = i;
    pkt.dst = 5 - i;
    pkt.flits = 2;
    pkt.fingerprint = i;
    (void)noc.inject(pkt);
  }
  noc.run_to_completion();
  const NocStats& s = noc.stats();
  const RouterPowerModel& p = noc.power();
  const double expected =
      static_cast<double>(s.buffer_writes) * p.buffer_write.value() +
      static_cast<double>(s.buffer_reads) * p.buffer_read.value() +
      static_cast<double>(s.xbar_traversals) * p.xbar_traversal.value() +
      static_cast<double>(s.flit_hops) * p.link_traversal.value();
  EXPECT_DOUBLE_EQ(noc.dynamic_energy().value(), expected);
  EXPECT_GT(expected, 0.0);
}

// stats().cycles counts every cycle in which a NIC holds a packet, even
// one whose release is still ahead; only cycles in which the whole
// network is empty are skipped uncounted.
TEST(MeshNoc, CyclesCountNicWaitsButNotAnEmptyNetwork) {
  NocPacket pkt;
  pkt.src = 0;
  pkt.dst = 3;
  pkt.flits = 2;

  // Released 500 cycles into a run, and again 500 cycles after the
  // mesh has drained: the packet waits in its NIC both times.
  MeshNoc prompt(2, 2, small_params());
  MeshNoc held(2, 2, small_params());
  for (std::uint64_t session = 0; session < 2; ++session) {
    pkt.release = prompt.now();
    (void)prompt.inject(pkt);
    prompt.run_to_completion();
    pkt.release = held.now() + 500;
    (void)held.inject(pkt);
    held.run_to_completion();
    EXPECT_EQ(held.stats().cycles,
              prompt.stats().cycles + 500 * (session + 1));
  }

  // A dependent released 500 cycles after its dependency ejects, with
  // every NIC empty meanwhile: the clock jumps and nothing is counted.
  MeshNoc at_once(2, 2, small_params());
  MeshNoc later(2, 2, small_params());
  for (MeshNoc* noc : {&at_once, &later}) {
    pkt.release = 0;
    pkt.after = kNoPacket;
    const std::size_t cmd = noc->inject(pkt);
    pkt.after = cmd;
    pkt.release = noc == &later ? 500 : 0;
    (void)noc->inject(pkt);
    noc->run_to_completion();
  }
  EXPECT_EQ(later.deliveries()[1].injected,
            later.deliveries()[0].delivered + 500);
  EXPECT_EQ(later.stats().cycles, at_once.stats().cycles);
}

TEST(MeshNoc, RunToCompletionIsReentrantWithMonotonicClock) {
  MeshNoc noc(2, 2, small_params());
  NocPacket pkt;
  pkt.src = 0;
  pkt.dst = 3;
  pkt.flits = 2;
  (void)noc.inject(pkt);
  noc.run_to_completion();
  const NocCycle first = noc.makespan();

  pkt.release = noc.now();
  (void)noc.inject(pkt);
  noc.run_to_completion();
  EXPECT_GT(noc.makespan(), first);
  EXPECT_TRUE(noc.deliveries()[1].done);
}

TEST(MeshNoc, RejectsACycleThatIsNotPositiveAndFinite) {
  for (const double cycle :
       {-1e-9, 0.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    NocParams p = small_params();
    p.cycle = Time(cycle);
    EXPECT_THROW(MeshNoc(2, 2, p), Error) << "cycle " << cycle << " s";
  }
}

TEST(MeshNoc, RejectsAShapePastTheNodeCeilingBeforeAllocating) {
  // Unchecked, the first wraps to a 0-router mesh, the second's product
  // wraps to 2^64 − 1 (std::length_error) and the third asks for 2^34
  // routers (std::bad_alloc).
  constexpr std::size_t k32 = std::size_t{1} << 32;
  struct Shape {
    std::size_t width, height;
  };
  for (const Shape& shape : {Shape{k32, k32}, Shape{k32 + 1, k32 - 1},
                             Shape{std::size_t{1} << 33, 3},
                             Shape{kMaxMeshNodes + 1, 1},
                             Shape{1, kMaxMeshNodes + 1}, Shape{0, 4},
                             Shape{4, 0}})
    EXPECT_THROW(MeshNoc(shape.width, shape.height, small_params()), Error)
        << shape.width << " x " << shape.height;
}

}  // namespace
}  // namespace memcim
