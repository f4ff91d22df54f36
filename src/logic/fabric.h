// Stateful-logic fabric: the execution substrate for material
// implication (IMP) programs — Section IV.C of the paper.
//
// A fabric is a growable file of memristive registers supporting the
// three primitive micro-operations of stateful logic:
//
//   set(r, v)    — unconditional write (1 step, 1 device write),
//   imply(p, q)  — q ← p IMP q = ¬p ∨ q (1 step),
//   read(r)      — sense the stored bit.
//
// Every gate, comparator and adder in this library is an IMP program
// over this interface, so the same program runs on:
//
//   * IdealFabric  — boolean semantics (the architecture-level model),
//   * DeviceFabric — two real VCM devices + load resistor R_G driven
//     with V_COND/V_SET (Figure 5(a), Borghetti/Kvatinsky style),
//   * CrsFabric    — one CRS cell per register operated with ±½V_write
//     input voltages (Figure 5(b), Linn in-array style).
//
// The fabric also keeps the cost books: steps (latency quanta — one
// memristor write time each, Table 1: 200 ps) and device writes
// (dynamic energy quanta, Table 1: 1 fJ per write).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/units.h"
#include "telemetry/telemetry.h"

namespace memcim {

namespace detail {
/// Fabric micro-op tallies, shared by every backend.  Resolved lazily
/// so merely constructing a fabric registers nothing.
struct FabricMetrics {
  telemetry::Counter& sets;
  telemetry::Counter& implies;
  telemetry::Counter& reads;
  telemetry::Counter& steps;
  telemetry::Counter& writes;
  FabricMetrics()
      : sets(telemetry::Registry::global().counter("fabric.set")),
        implies(telemetry::Registry::global().counter("fabric.imply")),
        reads(telemetry::Registry::global().counter("fabric.read")),
        steps(telemetry::Registry::global().counter("fabric.steps")),
        writes(telemetry::Registry::global().counter("fabric.writes")) {}
};

inline FabricMetrics& fabric_metrics() {
  static FabricMetrics m;
  return m;
}

/// Program replay tallies, booked by the scalar run_program* paths and
/// the packed engine alike.  Resolved lazily, like fabric_metrics().
struct ProgramMetrics {
  telemetry::Counter& runs;
  telemetry::Counter& instructions;
  telemetry::Counter& imply_steps;
  telemetry::Counter& simd_windows;
  ProgramMetrics()
      : runs(telemetry::Registry::global().counter("program.runs")),
        instructions(
            telemetry::Registry::global().counter("program.instructions")),
        imply_steps(
            telemetry::Registry::global().counter("program.imply_steps")),
        simd_windows(
            telemetry::Registry::global().counter("program.simd_windows")) {}
};

inline ProgramMetrics& program_metrics() {
  static ProgramMetrics m;
  return m;
}
}  // namespace detail

/// Register index within a fabric.
using Reg = std::size_t;

/// Fault-injection hooks consulted by every fabric micro-op (see
/// src/fault/ for the FaultPlan-driven implementation).  The interface
/// lives here so any backend gains fault support without the logic
/// layer depending on the fault subsystem:
///
///   * stuck_value — a permanently pinned register (stuck-at-LRS reads
///     logic 1, stuck-at-HRS logic 0); writes land but do not stick.
///   * write_fails — a transient write failure: the pulse is issued
///     (cost accrues) but the register keeps its old value.
///   * disturb_read — a transient sensing upset: the returned bit may
///     be flipped; the stored state is untouched.
class FabricFaultHooks {
 public:
  virtual ~FabricFaultHooks() = default;
  [[nodiscard]] virtual std::optional<bool> stuck_value(Reg r) const = 0;
  [[nodiscard]] virtual bool write_fails(Reg r) = 0;
  [[nodiscard]] virtual bool disturb_read(Reg r, bool sensed) = 0;
};

/// Latency/energy quanta of one micro-op (Table 1 of the paper).
struct LogicCostModel {
  Time t_step{200e-12};      ///< memristor write time per step
  Energy e_write{1e-15};     ///< dynamic energy per device write
};

/// Throws Error unless t_step is finite and positive and e_write is
/// finite and not negative.  Every consumer of a cost model (each
/// Fabric, CimTile, isa::compile) checks it on construction.
void check_logic_cost_model(const LogicCostModel& cost);

class Fabric {
 public:
  explicit Fabric(const LogicCostModel& cost = {}) : cost_(cost) {
    check_logic_cost_model(cost_);
  }
  Fabric(const Fabric&) = default;
  Fabric& operator=(const Fabric&) = default;
  virtual ~Fabric() = default;

  /// Allocate a fresh register (initial state is logic 0; allocation
  /// itself is free — devices exist physically, cost accrues on use).
  [[nodiscard]] Reg alloc() {
    grow(size_ + 1);
    return size_++;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Unconditional write: set_step_cost() steps, 1 device write.
  void set(Reg r, bool value) {
    check(r);
    if (telemetry::enabled()) {
      detail::FabricMetrics& m = detail::fabric_metrics();
      m.sets.add(1);
      m.steps.add(set_step_cost());
      m.writes.add(1);
    }
    if (faults_ != nullptr) {
      if (const auto s = faults_->stuck_value(r)) {
        // The pulse lands on a pinned device: cost accrues, state does
        // not move off the stuck value.
        pin(r, *s);
        steps_ += set_step_cost();
        ++writes_;
        return;
      }
      if (faults_->write_fails(r)) {
        steps_ += set_step_cost();
        ++writes_;
        return;
      }
    }
    do_set(r, value);
    steps_ += set_step_cost();
    ++writes_;
  }

  /// Material implication q ← p IMP q: imply_step_cost() steps, 1
  /// device write.
  void imply(Reg p, Reg q) {
    check(p);
    check(q);
    if (telemetry::enabled()) {
      detail::FabricMetrics& m = detail::fabric_metrics();
      m.implies.add(1);
      m.steps.add(imply_step_cost());
      m.writes.add(1);
    }
    if (faults_ != nullptr) {
      // The backend computes from its stored state of p, so a stuck p
      // must be physically pinned before the op executes.
      if (const auto sp = faults_->stuck_value(p)) pin(p, *sp);
      if (const auto sq = faults_->stuck_value(q)) {
        pin(q, *sq);
      } else if (faults_->write_fails(q)) {
        // conditional SET pulse dropped: q keeps its old value
      } else {
        do_imply(p, q);
      }
      steps_ += imply_step_cost();
      ++writes_;
      return;
    }
    do_imply(p, q);
    steps_ += imply_step_cost();
    ++writes_;
  }

  /// Sense the digital value of register r (free in the cost model —
  /// readout happens on the sense amps, not the array).
  [[nodiscard]] bool read(Reg r) const {
    check(r);
    detail::fabric_metrics().reads.add(1);
    bool value = do_read(r);
    if (faults_ != nullptr) {
      if (const auto s = faults_->stuck_value(r)) value = *s;
      value = faults_->disturb_read(r, value);
    }
    return value;
  }

  /// Install (or remove, with nullptr) fault hooks.  Ownership stays
  /// with the caller; the hooks must outlive the fabric's use.
  void attach_faults(FabricFaultHooks* hooks) { faults_ = hooks; }
  [[nodiscard]] FabricFaultHooks* faults() const { return faults_; }

  // -- cost books -----------------------------------------------------------
  [[nodiscard]] std::uint64_t steps() const { return steps_; }
  [[nodiscard]] std::uint64_t writes() const { return writes_; }
  [[nodiscard]] Time latency() const {
    return cost_.t_step * static_cast<double>(steps_);
  }
  [[nodiscard]] Energy energy() const {
    return cost_.e_write * static_cast<double>(writes_);
  }
  [[nodiscard]] const LogicCostModel& cost_model() const { return cost_; }

  void reset_counters() {
    steps_ = 0;
    writes_ = 0;
  }

 protected:
  virtual void do_set(Reg r, bool value) = 0;
  virtual void do_imply(Reg p, Reg q) = 0;
  [[nodiscard]] virtual bool do_read(Reg r) const = 0;
  /// Cost-free state fixup for a stuck register: align the backend's
  /// stored state with the pinned value WITHOUT issuing a real pulse.
  /// The default forwards to do_set for backends whose writes carry no
  /// hidden cost book (IdealFabric); device-backed fabrics override it
  /// with a silent state assignment so a pin never accrues device
  /// switching energy — stuck means "energy stops accruing" at every
  /// layer (see docs/TELEMETRY.md).
  virtual void do_pin(Reg r, bool value) { do_set(r, value); }
  /// Ensure backing storage for at least n registers.
  virtual void grow(std::size_t n) = 0;
  /// Latency quanta per primitive; backends whose circuit needs more
  /// than one pulse (e.g. CRS init + operate) override these.
  [[nodiscard]] virtual std::uint64_t set_step_cost() const { return 1; }
  [[nodiscard]] virtual std::uint64_t imply_step_cost() const { return 1; }

 private:
  void check(Reg r) const;

  /// Align the backend's stored state of a stuck register with its
  /// pinned value (cost-free modelling fixup, only when they differ).
  void pin(Reg r, bool value) {
    if (do_read(r) != value) do_pin(r, value);
  }

  LogicCostModel cost_;
  std::size_t size_ = 0;
  std::uint64_t steps_ = 0;
  std::uint64_t writes_ = 0;
  FabricFaultHooks* faults_ = nullptr;
};

}  // namespace memcim
