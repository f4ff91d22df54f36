// Test oracle for MeshNoc: a plain cycle-by-cycle mesh that rescans
// every unresolved packet at the start of each cycle, steps one cycle
// at a time whenever a flit is in flight or a NIC holds a packet, and
// fast-forwards only when the whole network is empty.  Same router
// microarchitecture, arbitration, credit rule, NIC head selection,
// link-fault model and event counts as MeshNoc; no telemetry.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "noc/mesh.h"

namespace memcim {

class ReferenceMesh {
 public:
  ReferenceMesh(std::size_t width, std::size_t height,
                const NocParams& params);

  std::size_t inject(const NocPacket& packet);
  void run_to_completion();
  void set_link_fault(std::size_t link, std::size_t wire, bool stuck_one);

  [[nodiscard]] NocCycle now() const { return now_; }
  [[nodiscard]] NocCycle makespan() const { return last_delivery_; }
  [[nodiscard]] const std::vector<NocDelivery>& deliveries() const {
    return deliveries_;
  }
  [[nodiscard]] const NocStats& stats() const { return stats_; }
  /// Busy cycles of directional link node · 4 + dir.
  [[nodiscard]] std::uint64_t link_busy(std::size_t link) const {
    return link_busy_[link];
  }
  [[nodiscard]] Energy dynamic_energy() const;

 private:
  struct Flit {
    std::size_t packet = 0;
    std::size_t index = 0;
  };
  struct Router {
    std::deque<Flit> in[kNocPorts];
    std::size_t rr[kNocPorts] = {0, 0, 0, 0, 0};
  };
  struct PacketState {
    NocPacket packet;
    NocCycle released = 0;
    bool release_resolved = false;
    std::size_t flits_sent = 0;
    std::size_t flits_ejected = 0;
  };
  struct Transfer {
    std::size_t node;
    std::size_t in_port;
    NocDir out;
  };
  struct WireFault {
    std::size_t wire;
    bool stuck_one;
  };

  [[nodiscard]] std::size_t nodes() const { return width_ * height_; }
  [[nodiscard]] NocDir route(std::size_t node, std::size_t dst) const;
  [[nodiscard]] std::size_t neighbor(std::size_t node, NocDir dir) const;
  void resolve_releases();
  void step_cycle();
  [[nodiscard]] bool idle() const;
  [[nodiscard]] NocCycle next_release() const;
  void apply_link_faults(std::size_t link, std::size_t handle,
                         std::size_t flit_index);
  void eject(const Flit& flit);

  std::size_t width_;
  std::size_t height_;
  NocParams params_;
  RouterPowerModel power_;
  std::vector<Router> routers_;
  std::vector<PacketState> packets_;
  std::vector<NocDelivery> deliveries_;
  std::vector<std::deque<std::size_t>> nics_;
  std::vector<std::uint64_t> link_busy_;
  std::vector<std::vector<WireFault>> link_faults_;
  NocCycle now_ = 0;
  NocCycle last_delivery_ = 0;
  std::size_t undelivered_ = 0;
  std::size_t in_flight_flits_ = 0;
  NocStats stats_;
};

}  // namespace memcim
