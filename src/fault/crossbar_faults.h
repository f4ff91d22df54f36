// Bind a FaultPlan to the crossbar-layer structures: analog crossbar
// arrays (stuck junctions + conductance drift), behavioural CRS memory
// banks and SECDED banks (stuck cells), CAMs (stuck value cells) and
// TC-adder farms (stuck sum/carry/scratch cells).
//
// Site numbering is row-major everywhere: site = r * cols + c for
// arrays and memories, site = row * word_bits + bit for CAMs, and
// site = slot * (width + 2) + cell for adder farms.
#pragma once

#include <cstddef>
#include <vector>

#include "crossbar/crossbar.h"
#include "crossbar/crs_memory.h"
#include "crossbar/ecc_memory.h"
#include "fault/fault_model.h"
#include "logic/cam.h"
#include "logic/packed_adder.h"

namespace memcim {

/// What a plan application actually touched.
struct CrossbarFaultSummary {
  std::size_t stuck_lrs = 0;
  std::size_t stuck_hrs = 0;
  std::size_t drifted = 0;
  [[nodiscard]] std::size_t total() const {
    return stuck_lrs + stuck_hrs + drifted;
  }
};

/// Force stuck junction states (LRS = state 1, HRS = state 0) and
/// apply drift displacement toward 0.5 on an analog crossbar.  The
/// plan population must cover rows*cols sites.
CrossbarFaultSummary apply_fault_plan(CrossbarArray& array,
                                      const FaultPlan& plan);

/// Pin stuck cells in a SECDED bank (site = row * 13 + codeword bit).
CrossbarFaultSummary apply_fault_plan(EccCrsMemory& memory,
                                      const FaultPlan& plan);

/// Pin stuck value cells in a CAM (site = row * word_bits + bit).
CrossbarFaultSummary apply_fault_plan(CrsCam& cam, const FaultPlan& plan);

/// Pin stuck cells across a TC-adder farm
/// (site = slot * (width + 2) + cell; PackedTcAdderFarm::inject_stuck).
CrossbarFaultSummary apply_fault_plan(PackedTcAdderFarm& farm,
                                      const FaultPlan& plan);

}  // namespace memcim
