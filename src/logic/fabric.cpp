#include "logic/fabric.h"

#include <cmath>

#include "common/error.h"

namespace memcim {

void check_logic_cost_model(const LogicCostModel& cost) {
  MEMCIM_CHECK_MSG(std::isfinite(cost.t_step.value()) &&
                       cost.t_step.value() > 0.0,
                   "t_step must be finite and positive");
  MEMCIM_CHECK_MSG(std::isfinite(cost.e_write.value()) &&
                       cost.e_write.value() >= 0.0,
                   "e_write must be finite and not negative");
}

void Fabric::check(Reg r) const {
  MEMCIM_CHECK_MSG(r < size_, "register " << r << " not allocated (size "
                                          << size_ << ")");
}

}  // namespace memcim
