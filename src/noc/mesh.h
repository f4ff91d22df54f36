// Cycle-accurate 2-D mesh NoC with XY routing, bounded input buffers
// and credit-based backpressure.
//
// Microarchitecture (one router per tile, 5 ports N/E/S/W/Local):
//
//   * Every input port owns a FIFO of `buffer_flits` flits.  A flit
//     advances at most one hop per cycle: two-phase simulation
//     snapshots all FIFO heads and occupancies first, then applies the
//     selected transfers, so in-cycle router iteration order can never
//     leak into results.
//   * An output port forwards one flit per cycle.  When several input
//     heads request the same output, a per-output round-robin pointer
//     arbitrates (deterministic: state advances only on grants).
//   * Credits: a transfer is granted only when the downstream input
//     FIFO has a free slot at the start of the cycle — links never
//     drop flits; full buffers backpressure upstream (counted in
//     noc.credit_stalls).
//   * Routing is dimension-ordered XY (X first, then Y): deadlock-free
//     on a mesh, deterministic paths, in-order per-packet delivery.
//   * Injection: packets queue in their source NIC in (release,
//     injection-order) order; the NIC feeds the router's Local input
//     FIFO one flit per cycle.  Ejection pops one flit per cycle from
//     the Local output.
//
// The simulation is serial and the event order is a pure function of
// the injected packet set, so every statistic (and the virtual-clock
// makespan) is bitwise identical at any MEMCIM_THREADS setting — the
// multi-tile layer runs tile *compute* on the thread pool and replays
// traffic here afterwards.
//
// Link faults: a directional link can carry stuck-at wires (see
// set_link_fault).  Each traversing flit's wire data is derived from
// the packet fingerprint; a stuck wire that disagrees flips that bit,
// and the per-flit parity wire catches odd flip counts (even counts
// are silent — the failure mode the fault campaign measures).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "noc/message.h"
#include "noc/noc_params.h"

namespace memcim {

/// Output directions of a router; kLocal is ejection.
enum class NocDir : std::uint8_t { kNorth = 0, kEast, kSouth, kWest, kLocal };
inline constexpr std::size_t kNocPorts = 5;
/// Directional (non-local) links per router.
inline constexpr std::size_t kNocLinkDirs = 4;
/// Most routers a mesh may have (width · height); the benches use 16.
inline constexpr std::size_t kMaxMeshNodes = std::size_t{1} << 16;

/// Per-link traffic summary exported after a run.
struct NocLinkUse {
  std::size_t node = 0;        ///< upstream router
  NocDir dir = NocDir::kNorth; ///< link direction out of `node`
  std::uint64_t busy_cycles = 0;
  double utilization = 0.0;    ///< busy / makespan (0 when makespan 0)
};

/// Aggregate books of one MeshNoc lifetime.
struct NocStats {
  std::uint64_t packets = 0;
  std::uint64_t flits = 0;           ///< flits injected
  std::uint64_t flit_hops = 0;       ///< link traversals (router→router)
  std::uint64_t ejections = 0;       ///< flits delivered at Local ports
  std::uint64_t buffer_writes = 0;
  std::uint64_t buffer_reads = 0;
  std::uint64_t xbar_traversals = 0;
  std::uint64_t credit_stalls = 0;   ///< grant denied: full downstream FIFO
  /// Virtual cycles simulated, including each wait for a release that
  /// began with a packet already in a NIC (one injected with a release
  /// ahead of the clock waits there).  A wait that began with the whole
  /// network empty (nothing in flight, every NIC empty) is not counted.
  std::uint64_t cycles = 0;
};

class MeshNoc {
 public:
  /// Throws Error, before allocating, unless width and height are
  /// positive with at most kMaxMeshNodes routers, and the parameters
  /// are sound.
  MeshNoc(std::size_t width, std::size_t height, const NocParams& params);

  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::size_t height() const { return height_; }
  [[nodiscard]] std::size_t nodes() const { return width_ * height_; }
  [[nodiscard]] const NocParams& params() const { return params_; }
  [[nodiscard]] const RouterPowerModel& power() const { return power_; }

  [[nodiscard]] std::size_t node_at(std::size_t x, std::size_t y) const {
    return y * width_ + x;
  }
  [[nodiscard]] std::size_t x_of(std::size_t node) const {
    return node % width_;
  }
  [[nodiscard]] std::size_t y_of(std::size_t node) const {
    return node / width_;
  }

  /// Queue a packet; returns its handle (index into deliveries()).
  /// Handles are assigned in injection-call order, and that order is
  /// part of the deterministic contract — callers inject in a fixed
  /// order (the partitioner uses tile order).
  std::size_t inject(const NocPacket& packet);

  /// Run the virtual clock until every injected packet is delivered.
  /// Callable repeatedly; the clock continues monotonically.
  void run_to_completion();

  [[nodiscard]] NocCycle now() const { return now_; }
  /// Cycle the last flit so far was ejected (the fabric makespan).
  [[nodiscard]] NocCycle makespan() const { return last_delivery_; }
  [[nodiscard]] const std::vector<NocDelivery>& deliveries() const {
    return deliveries_;
  }
  [[nodiscard]] const NocStats& stats() const { return stats_; }

  /// Total dynamic energy, reconstructed exactly from the event counts
  /// (count × per-event quantum per class; see RouterPowerModel).
  [[nodiscard]] Energy dynamic_energy() const;

  /// XY hop count (link traversals per flit) between two nodes.
  [[nodiscard]] std::size_t hops(std::size_t src, std::size_t dst) const;

  /// Exact dynamic energy of one (src → dst, flits) packet.  The hop
  /// count is structural under XY routing, and each flit pays exactly
  /// (1 + hops) buffer writes, reads and crossbar traversals plus
  /// `hops` link traversals regardless of stalls — so summing
  /// packet_energy over all deliveries reproduces dynamic_energy()
  /// bit for bit.  The per-packet attribution book relies on this.
  [[nodiscard]] Energy packet_energy(std::size_t src, std::size_t dst,
                                     std::size_t flits) const;

  /// Per-link busy summary over the current makespan.
  [[nodiscard]] std::vector<NocLinkUse> link_utilization() const;

  // -- fault injection --------------------------------------------------------
  /// Directional links are numbered node · 4 + dir, dir ∈ {N,E,S,W};
  /// ids on the mesh edge address no physical link and arming them is
  /// a no-op (the campaign's population is the full rectangle).
  [[nodiscard]] std::size_t link_population() const {
    return nodes() * kNocLinkDirs;
  }
  /// Pin wire `wire` (< link_wires(), the last being the parity wire)
  /// of directional link `link` at `stuck_one`.  Every flit crossing
  /// the link whose data disagrees gets that bit flipped.
  void set_link_fault(std::size_t link, std::size_t wire, bool stuck_one);

 private:
  struct Flit {
    std::size_t packet = 0;  ///< handle
    std::size_t index = 0;   ///< position within the packet
  };
  struct InputPort {
    std::deque<Flit> fifo;
  };
  struct Router {
    InputPort in[kNocPorts];
    std::size_t rr[kNocPorts] = {0, 0, 0, 0, 0};  ///< arbiter pointers
    std::size_t flits = 0;  ///< flits resident in the input FIFOs
  };
  struct PacketState {
    NocPacket packet;
    NocCycle released = 0;
    std::size_t flits_sent = 0;   ///< flits pushed into the Local FIFO
    std::size_t flits_ejected = 0;
    /// Intrusive list of packets whose `after` is this one, waiting
    /// for its tail flit to eject.
    std::size_t first_dependent = kNoPacket;
    std::size_t next_dependent = kNoPacket;
  };
  struct Transfer {
    std::size_t node;
    std::size_t in_port;
    NocDir out;
  };

  [[nodiscard]] NocDir route(std::size_t node, std::size_t dst) const;
  [[nodiscard]] std::size_t neighbor(std::size_t node, NocDir dir) const;
  /// Input port of `neighbor(node, dir)` that link (node, dir) feeds.
  [[nodiscard]] std::size_t entry_port(NocDir dir) const;
  /// Stamp each ready packet's release and queue it at its source NIC.
  void resolve_releases();
  void step_cycle();
  /// Earliest release among NIC-queued packets (or ~0ull).
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
  /// Handles whose release is now known: injected with no pending
  /// dependency, or whose dependency's tail flit has ejected.  Drained
  /// into the NICs at the start of the next cycle, so a dependent never
  /// injects in the cycle its dependency ejects.
  std::vector<std::size_t> ready_;
  /// Per-node NIC: handles of queued packets.  The front packet streams
  /// its flits first; otherwise the earliest (release, handle) released
  /// packet takes the port, so queue order never matters.
  std::vector<std::deque<std::size_t>> nics_;
  std::size_t nic_queued_ = 0;  ///< packets across all NICs
  std::vector<Transfer> grants_;  ///< one cycle's switch allocation
  std::vector<std::uint64_t> link_busy_;  ///< per directional link
  struct WireFault {
    std::size_t wire;
    bool stuck_one;
  };
  std::vector<std::vector<WireFault>> link_faults_;  ///< per link, may be empty

  /// Virtual-to-wall time mapping for trace emission: captured at the
  /// first traced injection so "noc.packet" spans land inside the
  /// dispatching wall-clock span in the exported timeline.
  bool trace_base_set_ = false;
  std::uint64_t trace_wall_base_ns_ = 0;
  NocCycle trace_cycle_base_ = 0;

  NocCycle now_ = 0;
  NocCycle last_delivery_ = 0;
  std::size_t undelivered_ = 0;
  std::size_t in_flight_flits_ = 0;  ///< flits resident in router FIFOs
  NocStats stats_;
};

}  // namespace memcim
