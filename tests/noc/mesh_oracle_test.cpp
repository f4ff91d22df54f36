// Differential test: MeshNoc (ready lists, skipped no-op cycles) against
// ReferenceMesh (full rescan, one step per cycle) on seeded random
// multi-session scenarios with dependency chains, releases ahead of the
// clock, credit stalls and stuck-wire link faults.
#include <gtest/gtest.h>


#include "common/rng.h"
#include "noc/mesh.h"
#include "reference_mesh.h"

namespace memcim {
namespace {

::testing::AssertionResult same_state(const MeshNoc& noc,
                                      const ReferenceMesh& ref) {
  const auto& a = noc.deliveries();
  const auto& b = ref.deliveries();
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << "delivery count differs";
  for (std::size_t i = 0; i < a.size(); ++i) {
    const NocDelivery& x = a[i];
    const NocDelivery& y = b[i];
    if (x.tag != y.tag || x.src != y.src || x.dst != y.dst ||
        x.flits != y.flits || x.released != y.released ||
        x.injected != y.injected || x.delivered != y.delivered ||
        x.done != y.done || x.corrupted_flits != y.corrupted_flits ||
        x.undetected_corrupted_flits != y.undetected_corrupted_flits ||
        x.span_id != y.span_id)
      return ::testing::AssertionFailure()
             << "delivery " << i << ": released " << x.released << "/"
             << y.released << " injected " << x.injected << "/" << y.injected
             << " delivered " << x.delivered << "/" << y.delivered;
  }
  const NocStats& s = noc.stats();
  const NocStats& r = ref.stats();
  if (s.packets != r.packets || s.flits != r.flits ||
      s.flit_hops != r.flit_hops || s.ejections != r.ejections ||
      s.buffer_writes != r.buffer_writes || s.buffer_reads != r.buffer_reads ||
      s.xbar_traversals != r.xbar_traversals ||
      s.credit_stalls != r.credit_stalls || s.cycles != r.cycles)
    return ::testing::AssertionFailure()
           << "stats differ: cycles " << s.cycles << "/" << r.cycles
           << " credit_stalls " << s.credit_stalls << "/" << r.credit_stalls;
  if (noc.now() != ref.now() || noc.makespan() != ref.makespan())
    return ::testing::AssertionFailure()
           << "clock differs: now " << noc.now() << "/" << ref.now()
           << " makespan " << noc.makespan() << "/" << ref.makespan();
  for (const NocLinkUse& use : noc.link_utilization()) {
    const std::size_t link =
        use.node * kNocLinkDirs + static_cast<std::size_t>(use.dir);
    if (use.busy_cycles != ref.link_busy(link))
      return ::testing::AssertionFailure() << "link " << link << " busy";
  }
  if (noc.dynamic_energy().value() != ref.dynamic_energy().value())
    return ::testing::AssertionFailure() << "dynamic energy differs";
  return ::testing::AssertionSuccess();
}

std::size_t pick(Rng& rng, std::size_t lo, std::size_t hi) {
  return static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
}

TEST(MeshNocOracle, MatchesTheCycleByCycleReferenceOn400Scenarios) {
  constexpr std::size_t kScenarios = 400;
  std::size_t stalled = 0;
  for (std::size_t seed = 0; seed < kScenarios; ++seed) {
    Rng rng(0x0C1Eull + seed);
    NocParams params;
    params.flit_payload_bits = 16;
    params.buffer_flits = pick(rng, 1, 4);
    const std::size_t width = pick(rng, 1, 5);
    const std::size_t height = pick(rng, 1, 4);
    MeshNoc noc(width, height, params);
    ReferenceMesh ref(width, height, params);
    if (seed % 5 == 0) {
      for (std::size_t f = pick(rng, 1, 4); f > 0; --f) {
        const std::size_t link = pick(rng, 0, noc.link_population() - 1);
        const std::size_t wire = pick(rng, 0, params.link_wires() - 1);
        const bool stuck_one = rng.bernoulli(0.5);
        noc.set_link_fault(link, wire, stuck_one);
        ref.set_link_fault(link, wire, stuck_one);
      }
    }
    const std::size_t sessions = pick(rng, 1, 6);
    for (std::size_t session = 0; session < sessions; ++session) {
      const std::size_t first = noc.deliveries().size();
      const std::size_t count = pick(rng, 1, 24);
      const std::size_t hotspot = pick(rng, 0, noc.nodes() - 1);
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t handle = first + i;
        NocPacket pkt;
        pkt.src = pick(rng, 0, noc.nodes() - 1);
        pkt.dst = rng.bernoulli(0.5) ? hotspot : pick(rng, 0, noc.nodes() - 1);
        pkt.flits = pick(rng, 1, 5);
        pkt.tag = handle;
        pkt.fingerprint = rng.engine()();
        const NocCycle offset =
            rng.bernoulli(0.3) ? 0 : static_cast<NocCycle>(pick(rng, 1, 60));
        const std::size_t kind = pick(rng, 0, 9);
        if (kind < 4) {
          // Absolute release: behind, at or ahead of the clock.
          pkt.release = kind == 0 ? 0 : noc.now() + offset;
        } else if (kind < 8 && i > 0) {
          pkt.after = pick(rng, first, handle - 1);  // same session
          pkt.release = offset;
        } else if (first > 0) {
          pkt.after = pick(rng, 0, first - 1);  // delivered earlier
          pkt.release = kind == 9 ? noc.now() + offset : offset;
        } else {
          pkt.release = noc.now() + 10 * offset;  // a long wait
        }
        ASSERT_EQ(noc.inject(pkt), ref.inject(pkt));
      }
      noc.run_to_completion();
      ref.run_to_completion();
      ASSERT_TRUE(same_state(noc, ref))
          << "scenario " << seed << ", session " << session << " ("
          << width << "x" << height << ", buffer_flits "
          << params.buffer_flits << ")";
    }
    if (noc.stats().credit_stalls > 0) ++stalled;
  }
  // The scenarios must exercise backpressure, not only free-flowing
  // traffic.
  EXPECT_GT(stalled, kScenarios / 2);
}

}  // namespace
}  // namespace memcim
