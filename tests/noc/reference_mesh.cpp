#include "reference_mesh.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "common/rng.h"

namespace memcim {

namespace {

constexpr NocCycle kNever = std::numeric_limits<NocCycle>::max();

std::size_t entry_port(NocDir dir) {
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
  throw std::logic_error("local port is not a link");
}

}  // namespace

ReferenceMesh::ReferenceMesh(std::size_t width, std::size_t height,
                             const NocParams& params)
    : width_(width),
      height_(height),
      params_(params),
      power_(RouterPowerModel::derive(params)),
      routers_(width * height),
      nics_(width * height),
      link_busy_(width * height * kNocLinkDirs, 0),
      link_faults_(width * height * kNocLinkDirs) {}

NocDir ReferenceMesh::route(std::size_t node, std::size_t dst) const {
  const std::size_t x = node % width_, y = node / width_;
  const std::size_t dx = dst % width_, dy = dst / width_;
  if (dx > x) return NocDir::kEast;
  if (dx < x) return NocDir::kWest;
  if (dy > y) return NocDir::kSouth;
  if (dy < y) return NocDir::kNorth;
  return NocDir::kLocal;
}

std::size_t ReferenceMesh::neighbor(std::size_t node, NocDir dir) const {
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
  throw std::logic_error("local port has no neighbor");
}

std::size_t ReferenceMesh::inject(const NocPacket& packet) {
  const std::size_t handle = packets_.size();
  PacketState ps;
  ps.packet = packet;
  packets_.push_back(ps);
  NocDelivery d;
  d.tag = packet.tag;
  d.src = packet.src;
  d.dst = packet.dst;
  d.flits = packet.flits;
  deliveries_.push_back(d);
  ++undelivered_;
  ++stats_.packets;
  return handle;
}

void ReferenceMesh::resolve_releases() {
  for (std::size_t h = 0; h < packets_.size(); ++h) {
    PacketState& ps = packets_[h];
    if (ps.release_resolved) continue;
    if (ps.packet.after == kNoPacket) {
      ps.released = ps.packet.release;
    } else if (deliveries_[ps.packet.after].done) {
      ps.released = deliveries_[ps.packet.after].delivered + ps.packet.release;
    } else {
      continue;
    }
    ps.release_resolved = true;
    deliveries_[h].released = ps.released;
    nics_[ps.packet.src].push_back(h);
  }
}

bool ReferenceMesh::idle() const {
  if (in_flight_flits_ != 0) return false;
  for (const auto& nic : nics_)
    if (!nic.empty()) return false;
  return true;
}

NocCycle ReferenceMesh::next_release() const {
  NocCycle next = kNever;
  for (const auto& nic : nics_)
    for (const std::size_t h : nic) next = std::min(next, packets_[h].released);
  return next;
}

void ReferenceMesh::apply_link_faults(std::size_t link, std::size_t handle,
                                      std::size_t flit_index) {
  const auto& faults = link_faults_[link];
  if (faults.empty()) return;
  const std::uint64_t word =
      splitmix64(packets_[handle].packet.fingerprint ^
                 (0xF117ull + static_cast<std::uint64_t>(flit_index)));
  const std::size_t parity_wire = params_.flit_payload_bits;
  std::size_t flips = 0;
  for (const WireFault& f : faults) {
    const bool carried = f.wire == parity_wire
                             ? (std::popcount(word) % 2) != 0
                             : ((word >> f.wire) & 1u) != 0;
    if (carried != f.stuck_one) ++flips;
  }
  if (flips == 0) return;
  ++deliveries_[handle].corrupted_flits;
  if (flips % 2 == 0) ++deliveries_[handle].undetected_corrupted_flits;
}

void ReferenceMesh::eject(const Flit& flit) {
  PacketState& ps = packets_[flit.packet];
  ++ps.flits_ejected;
  if (ps.flits_ejected == ps.packet.flits) {
    NocDelivery& d = deliveries_[flit.packet];
    d.delivered = now_;
    d.done = true;
    last_delivery_ = std::max(last_delivery_, now_);
    --undelivered_;
  }
}

void ReferenceMesh::step_cycle() {
  resolve_releases();

  // Phase A: every router, every output, every input in round-robin
  // order, all on start-of-cycle state.
  std::vector<Transfer> grants;
  for (std::size_t node = 0; node < nodes(); ++node) {
    Router& router = routers_[node];
    for (std::size_t out = 0; out < kNocPorts; ++out) {
      const NocDir dir = static_cast<NocDir>(out);
      bool any_candidate = false;
      std::size_t chosen = kNocPorts;
      for (std::size_t scan = 0; scan < kNocPorts; ++scan) {
        const std::size_t p = (router.rr[out] + scan) % kNocPorts;
        const auto& fifo = router.in[p];
        if (fifo.empty()) continue;
        if (route(node, packets_[fifo.front().packet].packet.dst) != dir)
          continue;
        any_candidate = true;
        chosen = p;
        break;
      }
      if (!any_candidate) continue;
      if (dir != NocDir::kLocal) {
        const std::size_t dn = neighbor(node, dir);
        if (routers_[dn].in[entry_port(dir)].size() >= params_.buffer_flits) {
          ++stats_.credit_stalls;
          continue;
        }
      }
      grants.push_back({node, chosen, dir});
      router.rr[out] = (chosen + 1) % kNocPorts;
    }
  }

  // Phase B: apply the grants.
  for (const Transfer& t : grants) {
    auto& fifo = routers_[t.node].in[t.in_port];
    const Flit flit = fifo.front();
    fifo.pop_front();
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
    routers_[dn].in[entry_port(t.out)].push_back(flit);
    ++stats_.buffer_writes;
  }

  // Phase C: NIC injection, earliest (release, handle) released packet
  // first; a streaming packet keeps the port.
  for (std::size_t node = 0; node < nodes(); ++node) {
    auto& nic = nics_[node];
    if (nic.empty()) continue;
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
    if (head_pos != 0) continue;
    const std::size_t h = nic.front();
    PacketState& ps = packets_[h];
    auto& local_fifo = routers_[node].in[static_cast<std::size_t>(NocDir::kLocal)];
    if (local_fifo.size() >= params_.buffer_flits) continue;
    if (ps.flits_sent == 0) deliveries_[h].injected = now_;
    local_fifo.push_back({h, ps.flits_sent});
    ++ps.flits_sent;
    ++in_flight_flits_;
    ++stats_.flits;
    ++stats_.buffer_writes;
    if (ps.flits_sent == ps.packet.flits) nic.pop_front();
  }

  ++stats_.cycles;
  ++now_;
}

void ReferenceMesh::run_to_completion() {
  resolve_releases();
  while (undelivered_ > 0) {
    if (idle()) {
      resolve_releases();
      const NocCycle next = next_release();
      if (next == kNever) throw std::logic_error("reference mesh deadlock");
      now_ = std::max(now_, next);
    }
    step_cycle();
  }
}

void ReferenceMesh::set_link_fault(std::size_t link, std::size_t wire,
                                   bool stuck_one) {
  link_faults_[link].push_back({wire, stuck_one});
}

Energy ReferenceMesh::dynamic_energy() const {
  return power_.buffer_write * static_cast<double>(stats_.buffer_writes) +
         power_.buffer_read * static_cast<double>(stats_.buffer_reads) +
         power_.xbar_traversal * static_cast<double>(stats_.xbar_traversals) +
         power_.link_traversal * static_cast<double>(stats_.flit_hops);
}

}  // namespace memcim
