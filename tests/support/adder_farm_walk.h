// The TC-adder farm walked pulse by pulse: a farm of CrsTcAdders with
// PackedTcAdderFarm's batch schedule and fault-site numbering, and
// run_parallel_add_ops' books folded from it.  The oracle side of the
// farm's differential tests (tests/logic/adder_oracle_test.cpp,
// tests/workloads/packed_parallel_add_test.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "support/crs_tc_adder.h"
#include "workloads/parallel_add.h"

namespace memcim {

class CrsTcAdderFarm {
 public:
  CrsTcAdderFarm(std::size_t slots, std::size_t width,
                 const CrsCellParams& cell);

  [[nodiscard]] std::size_t slots() const { return adders_.size(); }

  /// Run `a.size()` additions serially: op k on slot k % slots, the ops
  /// on a slot in ascending k.  Returns each op's result.
  [[nodiscard]] std::vector<TcAdderResult> run(
      const std::vector<std::uint64_t>& a,
      const std::vector<std::uint64_t>& b);

  /// site = slot · (width + 2) + cell, as PackedTcAdderFarm numbers it.
  void inject_stuck(std::size_t site, bool stuck_one);

  [[nodiscard]] const CrsTcAdder& adder(std::size_t slot) const {
    return adders_.at(slot);
  }
  /// Lifetime cell transitions of every adder.
  [[nodiscard]] std::uint64_t transitions() const;

 private:
  std::vector<CrsTcAdder> adders_;
};

/// run_parallel_add_ops walked on a fresh CrsTcAdderFarm of
/// `params.adders` slots: `pin`, when set, pins stuck cells on it first
/// (params.farm_hook is ignored).  Every book is folded in op order;
/// op_energy is always filled.
[[nodiscard]] ParallelAddResult walk_parallel_add_ops(
    const ParallelAddParams& params, const CrsCellParams& cell,
    const std::vector<std::uint64_t>& op_a,
    const std::vector<std::uint64_t>& op_b,
    const std::function<void(CrsTcAdderFarm&)>& pin = {});

}  // namespace memcim
