#include "replay.h"

#include <set>
#include <tuple>

#include "common/parallel.h"
#include "isa/kernels.h"

namespace perfbench {

using memcim::MeshNoc;
using memcim::NocCycle;
using memcim::NocDelivery;
using memcim::NocPacket;

namespace {

bool same_delivery(const NocDelivery& a, const NocDelivery& b) {
  return a.tag == b.tag && a.src == b.src && a.dst == b.dst &&
         a.flits == b.flits && a.released == b.released &&
         a.injected == b.injected && a.delivered == b.delivered &&
         a.done == b.done && a.corrupted_flits == b.corrupted_flits;
}

bool same_stats(const memcim::NocStats& a, const memcim::NocStats& b) {
  return a.packets == b.packets && a.flits == b.flits &&
         a.flit_hops == b.flit_hops && a.ejections == b.ejections &&
         a.buffer_writes == b.buffer_writes &&
         a.buffer_reads == b.buffer_reads &&
         a.xbar_traversals == b.xbar_traversals &&
         a.credit_stalls == b.credit_stalls && a.cycles == b.cycles;
}

}  // namespace

std::vector<NocCycle> completion_offsets(const MeshNoc& noc,
                                         const NocSession& session) {
  const std::vector<NocDelivery>& d = noc.deliveries();
  std::vector<NocCycle> offsets;
  for (std::size_t h = session.begin + 1; h < session.end; ++h)
    if (d[h].tag % 2 == 1) offsets.push_back(d[h].released - d[h - 1].delivered);
  return offsets;
}

NocLayer replay_noc(const MeshNoc& original,
                    const std::vector<NocSession>& sessions, const char* parent,
                    SpanLog& log, Outcome& out) {
  const std::vector<NocDelivery>& d = original.deliveries();
  MeshNoc noc(original.width(), original.height(), original.params());
  NocLayer layer;
  std::set<std::uint64_t> seen_signatures;
  std::uint64_t repeats = 0;
  std::vector<NocPacket> packets;
  for (const NocSession& s : sessions) {
    if (s.begin != noc.deliveries().size() || s.end > d.size() ||
        s.begin >= s.end) {
      out.fail("noc replay: session boundaries do not tile the delivery log");
      return layer;
    }
    const NocCycle start = noc.now();
    packets.clear();
    std::vector<std::tuple<std::size_t, std::size_t, std::size_t, NocCycle, bool>>
        signature;
    std::set<std::size_t> commanded;  // tiles that already got a command
    for (std::size_t h = s.begin; h < s.end; ++h) {
      NocPacket p;
      p.src = d[h].src;
      p.dst = d[h].dst;
      p.flits = d[h].flits;
      p.tag = d[h].tag;
      p.trace_id = 1;  // the original packets carried a trace context
      const bool completion = d[h].tag % 2 == 1;
      const bool follows = completion || !commanded.insert(d[h].dst).second;
      if (follows) {
        p.after = h - 1;
        p.release = d[h].released - d[h - 1].delivered;
      } else {
        p.release = d[h].released;
      }
      packets.push_back(p);
      signature.emplace_back(p.src, p.dst, p.flits,
                             follows ? p.release : p.release - start, follows);
    }
    const std::uint64_t t0 = log.now();
    for (const NocPacket& p : packets) (void)noc.inject(p);
    noc.run_to_completion();
    const std::uint64_t t1 = log.now();
    log.add("noc.session", parent, "noc", s.seq, t0, t1);
    layer.run_ns += t1 - t0;

    std::sort(signature.begin(), signature.end());
    Digest sig;
    for (const auto& [src, dst, flits, offset, follows] : signature) {
      sig.add(src);
      sig.add(dst);
      sig.add(flits);
      sig.add(offset);
      sig.add(follows ? 1 : 0);
    }
    if (!seen_signatures.insert(sig.value()).second) ++repeats;
  }
  layer.sessions = sessions.size();
  layer.repeat_session_share =
      sessions.empty() ? 0.0
                       : static_cast<double>(repeats) /
                             static_cast<double>(sessions.size());

  const std::vector<NocDelivery>& r = noc.deliveries();
  bool same = r.size() == d.size();
  for (std::size_t h = 0; same && h < r.size(); ++h)
    same = same_delivery(r[h], d[h]);
  out.expect(same, "noc replay: deliveries differ from the original run");
  out.expect(same_stats(noc.stats(), original.stats()),
             "noc replay: NocStats differ from the original run");
  out.expect(noc.dynamic_energy().value() == original.dynamic_energy().value(),
             "noc replay: dynamic energy differs from the original run");

  layer.cycles = noc.stats().cycles;
  layer.flits = noc.stats().flits;
  layer.flit_hops = noc.stats().flit_hops;
  layer.credit_stalls = noc.stats().credit_stalls;
  std::vector<NocCycle> waits;
  waits.reserve(r.size());
  for (const NocDelivery& x : r) waits.push_back(x.injected - x.released);
  layer.nic_wait_p99_cycles = nearest_rank(waits, 0.99);
  return layer;
}

void warm_compile_cache(const memcim::CimTileConfig& tile) {
  memcim::isa::ProgramCache::global().clear();
  memcim::isa::CompileOptions options;
  options.cost = tile.cost;
  (void)memcim::isa::cached_word_equality(tile.row_bits, options);
}

void run_as_pool_task(const std::function<void()>& fn) {
  memcim::parallel_for(0, 2, 1, [&fn](std::size_t i) {
    if (i == 0) fn();
  });
}

}  // namespace perfbench
