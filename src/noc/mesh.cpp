#include "noc/mesh.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>

#include "common/error.h"
#include "common/rng.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_export.h"

namespace memcim {

namespace {

inline constexpr NocCycle kNever = std::numeric_limits<NocCycle>::max();

[[nodiscard]] std::uint64_t flit_word(std::uint64_t fingerprint,
                                      std::size_t flit_index) {
  return splitmix64(fingerprint ^
                    (0xF117ull + static_cast<std::uint64_t>(flit_index)));
}

/// `width`, once width × height is known to be a mesh shape: checked
/// as a division, so a product past size_t cannot wrap into range.
std::size_t checked_mesh_width(std::size_t width, std::size_t height) {
  MEMCIM_CHECK_MSG(width > 0 && height > 0, "mesh needs at least one router");
  MEMCIM_CHECK_MSG(height <= kMaxMeshNodes / width,
                   "a " << width << " x " << height << " mesh has more than "
                        << kMaxMeshNodes << " routers");
  return width;
}

}  // namespace

MeshNoc::MeshNoc(std::size_t width, std::size_t height, const NocParams& params)
    : width_(checked_mesh_width(width, height)),
      height_(height),
      params_(params),
      power_(RouterPowerModel::derive(params)),
      routers_(width * height),
      nics_(width * height),
      link_busy_(width * height * kNocLinkDirs, 0),
      link_faults_(width * height * kNocLinkDirs) {
  MEMCIM_CHECK_MSG(params.flit_payload_bits >= 1 && params.buffer_flits >= 1,
                   "degenerate NoC parameters");
  // The period converts cycles to time for trace spans and tile busy
  // books, and time to cycles in TileFabric::compute_cycles.
  MEMCIM_CHECK_MSG(std::isfinite(params.cycle.value()) &&
                       params.cycle.value() > 0.0,
                   "NoC cycle must be positive and finite, got "
                       << params.cycle.value() << " s");
}

NocDir MeshNoc::route(std::size_t node, std::size_t dst) const {
  // Dimension-ordered XY: resolve the X offset first, then Y.
  const std::size_t x = x_of(node), y = y_of(node);
  const std::size_t dx = x_of(dst), dy = y_of(dst);
  if (dx > x) return NocDir::kEast;
  if (dx < x) return NocDir::kWest;
  if (dy > y) return NocDir::kSouth;
  if (dy < y) return NocDir::kNorth;
  return NocDir::kLocal;
}

std::size_t MeshNoc::neighbor(std::size_t node, NocDir dir) const {
  switch (dir) {
    case NocDir::kNorth:
      return node - width_;
    case NocDir::kSouth:
      return node + width_;
    case NocDir::kEast:
      return node + 1;
    case NocDir::kWest:
      return node - 1;
    case NocDir::kLocal:
      break;
  }
  MEMCIM_CHECK_MSG(false, "local port has no neighbor");
  return node;
}

std::size_t MeshNoc::entry_port(NocDir dir) const {
  // A flit leaving `node` eastward enters its neighbor's *west* port.
  switch (dir) {
    case NocDir::kNorth:
      return static_cast<std::size_t>(NocDir::kSouth);
    case NocDir::kSouth:
      return static_cast<std::size_t>(NocDir::kNorth);
    case NocDir::kEast:
      return static_cast<std::size_t>(NocDir::kWest);
    case NocDir::kWest:
      return static_cast<std::size_t>(NocDir::kEast);
    case NocDir::kLocal:
      break;
  }
  MEMCIM_CHECK_MSG(false, "local port is not a link");
  return 0;
}

std::size_t MeshNoc::inject(const NocPacket& packet) {
  MEMCIM_CHECK_MSG(packet.src < nodes() && packet.dst < nodes(),
                   "packet endpoints outside the mesh");
  MEMCIM_CHECK_MSG(packet.flits >= 1, "packets carry at least one flit");
  MEMCIM_CHECK_MSG(packet.after == kNoPacket || packet.after < packets_.size(),
                   "dependency on a packet not yet injected");
  const std::size_t handle = packets_.size();
  PacketState ps;
  ps.packet = packet;
  if (packet.after != kNoPacket && !deliveries_[packet.after].done) {
    PacketState& dep = packets_[packet.after];
    ps.next_dependent = dep.first_dependent;
    dep.first_dependent = handle;
  } else {
    ready_.push_back(handle);
  }
  packets_.push_back(ps);
  NocDelivery d;
  d.tag = packet.tag;
  d.src = packet.src;
  d.dst = packet.dst;
  d.flits = packet.flits;
  if (packet.trace_id != 0 && telemetry::enabled()) {
    d.span_id = telemetry::new_span_id();
    if (telemetry::tracing() && !trace_base_set_) {
      trace_base_set_ = true;
      trace_wall_base_ns_ = telemetry::now_ns();
      trace_cycle_base_ = now_;
    }
  }
  deliveries_.push_back(d);
  ++undelivered_;
  ++stats_.packets;
  return handle;
}

void MeshNoc::resolve_releases() {
  for (const std::size_t h : ready_) {
    PacketState& ps = packets_[h];
    ps.released = ps.packet.release;
    if (ps.packet.after != kNoPacket)
      ps.released += deliveries_[ps.packet.after].delivered;
    deliveries_[h].released = ps.released;
    nics_[ps.packet.src].push_back(h);
  }
  nic_queued_ += ready_.size();
  ready_.clear();
}

NocCycle MeshNoc::next_release() const {
  NocCycle next = kNever;
  for (const auto& nic : nics_)
    for (const std::size_t h : nic)
      next = std::min(next, packets_[h].released);
  return next;
}

void MeshNoc::apply_link_faults(std::size_t link, std::size_t handle,
                                std::size_t flit_index) {
  const auto& faults = link_faults_[link];
  if (faults.empty()) return;
  const std::uint64_t word =
      flit_word(packets_[handle].packet.fingerprint, flit_index);
  const std::size_t parity_wire = params_.flit_payload_bits;
  std::size_t flips = 0;
  for (const WireFault& f : faults) {
    bool carried;
    if (f.wire == parity_wire)
      carried = (std::popcount(word) % 2) != 0;  // even-parity wire
    else
      carried = ((word >> f.wire) & 1u) != 0;
    if (carried != f.stuck_one) ++flips;
  }
  if (flips == 0) return;
  ++deliveries_[handle].corrupted_flits;
  if (flips % 2 == 0) ++deliveries_[handle].undetected_corrupted_flits;
}

void MeshNoc::eject(const Flit& flit) {
  PacketState& ps = packets_[flit.packet];
  ++ps.flits_ejected;
  if (ps.flits_ejected == ps.packet.flits) {
    for (std::size_t h = ps.first_dependent; h != kNoPacket;
         h = packets_[h].next_dependent)
      ready_.push_back(h);
    NocDelivery& d = deliveries_[flit.packet];
    d.delivered = now_;
    d.done = true;
    last_delivery_ = std::max(last_delivery_, now_);
    --undelivered_;
    if (d.span_id != 0 && trace_base_set_ && telemetry::tracing()) {
      // Map the packet's virtual lifetime onto the wall-clock axis so
      // the span lands inside the dispatching span in the export.
      static const std::string kSpanName = "noc.packet";
      static telemetry::Counter& traced = telemetry::Registry::global().counter(
          "trace.noc_packets");
      const double cycle_ns = params_.cycle.value() * 1e9;
      const NocCycle start_c = std::max(d.released, trace_cycle_base_);
      const auto ts = trace_wall_base_ns_ +
                      static_cast<std::uint64_t>(std::llround(
                          static_cast<double>(start_c - trace_cycle_base_) *
                          cycle_ns));
      const auto dur = static_cast<std::uint64_t>(std::llround(
          static_cast<double>(now_ - start_c) * cycle_ns));
      telemetry::emit_trace_event(&kSpanName, ts, dur, ps.packet.trace_id,
                                  d.span_id, ps.packet.parent_span,
                                  static_cast<std::uint32_t>(d.dst));
      traced.add(1);
    }
  }
}

void MeshNoc::step_cycle() {
  // Phase A — switch allocation on start-of-cycle state.  Downstream
  // FIFO occupancies only change in phase B, so every credit check
  // below reads the same consistent snapshot regardless of router
  // iteration order.  Routers are visited in ascending node order, so
  // ejections (and their trace spans) keep a fixed order.
  grants_.clear();
  for (std::size_t node = 0; node < nodes(); ++node) {
    Router& router = routers_[node];
    if (router.flits == 0) continue;
    // Each input head requests exactly one output: its XY next hop.
    std::size_t want[kNocPorts];
    unsigned requested = 0;
    for (std::size_t p = 0; p < kNocPorts; ++p) {
      const auto& fifo = router.in[p].fifo;
      if (fifo.empty()) {
        want[p] = kNocPorts;
        continue;
      }
      want[p] = static_cast<std::size_t>(
          route(node, packets_[fifo.front().packet].packet.dst));
      requested |= 1u << want[p];
    }
    for (std::size_t out = 0; out < kNocPorts; ++out) {
      if ((requested & (1u << out)) == 0) continue;
      const NocDir dir = static_cast<NocDir>(out);
      std::size_t chosen = router.rr[out];
      while (want[chosen] != out) chosen = (chosen + 1) % kNocPorts;
      if (dir != NocDir::kLocal) {
        const std::size_t dn = neighbor(node, dir);
        if (routers_[dn].in[entry_port(dir)].fifo.size() >=
            params_.buffer_flits) {
          ++stats_.credit_stalls;  // backpressure: no credit downstream
          continue;
        }
      }
      grants_.push_back({node, chosen, dir});
      router.rr[out] = (chosen + 1) % kNocPorts;
    }
  }

  // Phase B — apply the granted transfers.
  for (const Transfer& t : grants_) {
    auto& fifo = routers_[t.node].in[t.in_port].fifo;
    const Flit flit = fifo.front();
    fifo.pop_front();
    --routers_[t.node].flits;
    ++stats_.buffer_reads;
    ++stats_.xbar_traversals;
    if (t.out == NocDir::kLocal) {
      --in_flight_flits_;
      ++stats_.ejections;
      eject(flit);
      continue;
    }
    const std::size_t dn = neighbor(t.node, t.out);
    const std::size_t link =
        t.node * kNocLinkDirs + static_cast<std::size_t>(t.out);
    ++link_busy_[link];
    ++stats_.flit_hops;
    apply_link_faults(link, flit.packet, flit.index);
    routers_[dn].in[entry_port(t.out)].fifo.push_back(flit);
    ++routers_[dn].flits;
    ++stats_.buffer_writes;
  }

  // Phase C — NICs feed one flit per cycle into their Local input FIFO.
  for (std::size_t node = 0; node < nodes(); ++node) {
    auto& nic = nics_[node];
    if (nic.empty()) continue;
    // Head-of-NIC selection: the packet already streaming keeps the
    // port; otherwise the earliest (release, handle) ready packet wins.
    constexpr std::size_t npos = static_cast<std::size_t>(-1);
    std::size_t head_pos = npos;
    if (packets_[nic.front()].flits_sent > 0) {
      head_pos = 0;
    } else {
      for (std::size_t i = 0; i < nic.size(); ++i) {
        const PacketState& candidate = packets_[nic[i]];
        if (candidate.released > now_) continue;
        if (head_pos == npos ||
            packets_[nic[head_pos]].released > candidate.released ||
            (packets_[nic[head_pos]].released == candidate.released &&
             nic[head_pos] > nic[i]))
          head_pos = i;
      }
      if (head_pos != npos && head_pos != 0) {
        std::swap(nic[0], nic[head_pos]);
        head_pos = 0;
      }
    }
    if (head_pos != 0) continue;  // nothing released yet
    const std::size_t h = nic.front();
    PacketState& ps = packets_[h];
    auto& local_fifo =
        routers_[node].in[static_cast<std::size_t>(NocDir::kLocal)].fifo;
    if (local_fifo.size() >= params_.buffer_flits) continue;  // NIC stalls
    if (ps.flits_sent == 0) deliveries_[h].injected = now_;
    local_fifo.push_back({h, ps.flits_sent});
    ++routers_[node].flits;
    ++ps.flits_sent;
    ++in_flight_flits_;
    ++stats_.flits;
    ++stats_.buffer_writes;
    if (ps.flits_sent == ps.packet.flits) {
      nic.pop_front();
      --nic_queued_;
    }
  }

  ++stats_.cycles;
  ++now_;
}

void MeshNoc::run_to_completion() {
  // Packets injected since the last run join their NICs first, so one
  // released ahead of the clock waits there and its wait is counted.
  resolve_releases();
  const NocCycle start = now_;
  while (undelivered_ > 0) {
    const bool nic_waiting = nic_queued_ != 0;
    resolve_releases();
    if (in_flight_flits_ == 0) {
      // Nothing moves before the earliest NIC release, so jump there.
      // A NIC that already held a packet waits through the skipped
      // cycles, and they count as simulated; an empty network's do not.
      const NocCycle next = next_release();
      MEMCIM_CHECK_MSG(next != kNever,
                       "NoC deadlock: undelivered packets depend on "
                       "deliveries that can never happen");
      if (next > now_) {
        if (nic_waiting) stats_.cycles += next - now_;
        now_ = next;
      }
    }
    step_cycle();
    MEMCIM_CHECK_MSG(now_ - start < 100'000'000ull,
                     "NoC run exceeded the cycle safety cap");
  }
}

Energy MeshNoc::dynamic_energy() const {
  return power_.buffer_write * static_cast<double>(stats_.buffer_writes) +
         power_.buffer_read * static_cast<double>(stats_.buffer_reads) +
         power_.xbar_traversal * static_cast<double>(stats_.xbar_traversals) +
         power_.link_traversal * static_cast<double>(stats_.flit_hops);
}

std::size_t MeshNoc::hops(std::size_t src, std::size_t dst) const {
  const std::size_t x1 = x_of(src), y1 = y_of(src);
  const std::size_t x2 = x_of(dst), y2 = y_of(dst);
  return (x1 > x2 ? x1 - x2 : x2 - x1) + (y1 > y2 ? y1 - y2 : y2 - y1);
}

Energy MeshNoc::packet_energy(std::size_t src, std::size_t dst,
                              std::size_t flits) const {
  // Each flit enters 1 + h routers (source NIC write plus one write per
  // hop), is read and crosses the crossbar once per router, and pays h
  // link traversals — all structural, never affected by stalls.
  const auto h = static_cast<double>(hops(src, dst));
  const auto n = static_cast<double>(flits);
  return (power_.buffer_write + power_.buffer_read + power_.xbar_traversal) *
             ((1.0 + h) * n) +
         power_.link_traversal * (h * n);
}

std::vector<NocLinkUse> MeshNoc::link_utilization() const {
  std::vector<NocLinkUse> uses;
  for (std::size_t node = 0; node < nodes(); ++node) {
    for (std::size_t d = 0; d < kNocLinkDirs; ++d) {
      const NocDir dir = static_cast<NocDir>(d);
      // Skip ids that point off the mesh edge.
      const std::size_t x = x_of(node), y = y_of(node);
      if ((dir == NocDir::kNorth && y == 0) ||
          (dir == NocDir::kSouth && y + 1 == height_) ||
          (dir == NocDir::kWest && x == 0) ||
          (dir == NocDir::kEast && x + 1 == width_))
        continue;
      NocLinkUse use;
      use.node = node;
      use.dir = dir;
      use.busy_cycles = link_busy_[node * kNocLinkDirs + d];
      use.utilization = last_delivery_ == 0
                            ? 0.0
                            : static_cast<double>(use.busy_cycles) /
                                  static_cast<double>(last_delivery_);
      uses.push_back(use);
    }
  }
  return uses;
}

void MeshNoc::set_link_fault(std::size_t link, std::size_t wire,
                             bool stuck_one) {
  MEMCIM_CHECK_MSG(link < link_population(), "link id out of range");
  MEMCIM_CHECK_MSG(wire < params_.link_wires(), "wire index out of range");
  link_faults_[link].push_back({wire, stuck_one});
}

}  // namespace memcim
