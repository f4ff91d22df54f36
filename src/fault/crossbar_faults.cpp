#include "fault/crossbar_faults.h"

#include "common/error.h"

namespace memcim {

namespace {

/// Walk the armed faults once, translating each stuck/drift entry into
/// a call on the structure-specific setter.
template <typename Stuck, typename Drift>
CrossbarFaultSummary walk(const FaultPlan& plan, std::size_t sites,
                          Stuck&& stuck, Drift&& drift) {
  MEMCIM_CHECK_MSG(plan.population() >= sites,
                   "fault plan population smaller than the structure");
  CrossbarFaultSummary summary;
  for (const ArmedFault& f : plan.armed()) {
    if (f.site >= sites) continue;
    switch (f.kind) {
      case FaultKind::kStuckAtLrs:
        stuck(f.site, true);
        ++summary.stuck_lrs;
        break;
      case FaultKind::kStuckAtHrs:
        stuck(f.site, false);
        ++summary.stuck_hrs;
        break;
      case FaultKind::kDrift:
        drift(f.site, f.magnitude);
        ++summary.drifted;
        break;
      case FaultKind::kWriteFail:
      case FaultKind::kReadDisturb:
        // Event faults have no static application; the consumer draws
        // them per operation through the plan.
        break;
    }
  }
  return summary;
}

}  // namespace

CrossbarFaultSummary apply_fault_plan(CrossbarArray& array,
                                      const FaultPlan& plan) {
  const std::size_t cols = array.cols();
  return walk(
      plan, array.rows() * cols,
      [&](std::size_t site, bool lrs) {
        array.device(site / cols, site % cols).set_state(lrs ? 1.0 : 0.0);
      },
      [&](std::size_t site, double magnitude) {
        Device& d = array.device(site / cols, site % cols);
        const double x = d.state();
        d.set_state(x + magnitude * (0.5 - x));
      });
}

CrossbarFaultSummary apply_fault_plan(CrsMemory& memory,
                                      const FaultPlan& plan) {
  const std::size_t cols = memory.cols();
  return walk(
      plan, memory.rows() * cols,
      [&](std::size_t site, bool lrs) {
        memory.inject_stuck(site / cols, site % cols, lrs);
      },
      [](std::size_t, double) {});  // behavioural cells carry no analog state
}

CrossbarFaultSummary apply_fault_plan(EccCrsMemory& memory,
                                      const FaultPlan& plan) {
  return walk(
      plan, memory.rows() * kEccCodewordBits,
      [&](std::size_t site, bool lrs) {
        memory.inject_stuck(site / kEccCodewordBits, site % kEccCodewordBits,
                            lrs);
      },
      [](std::size_t, double) {});
}

CrossbarFaultSummary apply_fault_plan(CrsCam& cam, const FaultPlan& plan) {
  const std::size_t bits = cam.config().word_bits;
  return walk(
      plan, cam.config().rows * bits,
      [&](std::size_t site, bool lrs) {
        cam.inject_stuck(site / bits, site % bits, lrs);
      },
      [](std::size_t, double) {});
}

CrossbarFaultSummary apply_fault_plan(PackedTcAdderFarm& farm,
                                      const FaultPlan& plan) {
  return walk(
      plan, farm.fault_sites(),
      [&](std::size_t site, bool lrs) { farm.inject_stuck(site, lrs); },
      [](std::size_t, double) {});
}

}  // namespace memcim
