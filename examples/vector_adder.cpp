// Massively-parallel vector addition — the paper's mathematics
// scenario.  A farm of CRS TC-adders executes a batch of 32-bit
// additions with every result checked against native arithmetic, then
// the same batch is priced on both architectures with the Table 2
// models.
//
// Build & run:  ./build/examples/vector_adder
#include <iostream>

#include "arch/cost_model.h"
#include "common/table.h"
#include "device/presets.h"
#include "logic/packed_adder.h"
#include "workloads/parallel_add.h"

int main() {
  using namespace memcim;

  // --- functional run on CRS hardware models --------------------------------
  ParallelAddParams params;
  params.operations = 10'000;
  params.width = 32;
  params.adders = 512;
  Rng rng(0xADD);
  const ParallelAddResult r = run_parallel_add(params, presets::crs_cell(), rng);

  TextTable farm({"CRS TC-adder farm", "value"});
  farm.add_row({"additions", std::to_string(params.operations)});
  farm.add_row({"physical adders", std::to_string(params.adders)});
  farm.add_row({"verified against CPU", r.mismatches == 0 ? "all correct"
                                                          : "MISMATCHES!"});
  farm.add_row({"pulses per addition",
                std::to_string(r.total_pulses / params.operations) +
                    "  (4N+5 = " + std::to_string(PackedTcAdderFarm::steps(32)) + ")"});
  farm.add_row({"devices per adder",
                std::to_string(PackedTcAdderFarm::devices(32)) + "  (N+2)"});
  farm.add_row({"wall latency (batched)", si_string(r.latency.value(), "s")});
  farm.add_row({"switching energy", si_string(r.total_energy.value(), "J")});
  std::cout << farm.to_text() << '\n';

  // --- sample: results stay resident in the crossbar -------------------------
  PackedTcAdderFarm adder(1, 32, presets::crs_cell());
  (void)adder.run({0xCAFE}, {0xBEEF});
  std::cout << "0xCAFE + 0xBEEF latched in the sum cells: 0x" << std::hex
            << adder.stored_sum(0) << std::dec
            << "  (no readout pulses spent)\n\n";

  // --- architecture verdict at paper scale (10^6 additions) ------------------
  const Table1 t1 = paper_table1();
  const WorkloadSpec spec = math_workload_spec(t1);
  const ArchCost conv = evaluate_conventional(spec, t1);
  const ArchCost cim = evaluate_cim(spec, t1);
  TextTable verdict({"Metric (10^6 x 32-bit adds)", "conventional", "CIM",
                     "gain"});
  verdict.add_row({"time/op", si_string(conv.time_per_op.value(), "s"),
                   si_string(cim.time_per_op.value(), "s"),
                   "CMOS faster per op"});
  verdict.add_row({"energy/op", si_string(conv.energy_per_op.value(), "J"),
                   si_string(cim.energy_per_op.value(), "J"),
                   fixed_string(conv.energy_per_op.value() /
                                    cim.energy_per_op.value(), 0) + "x"});
  verdict.add_row({"energy-delay/op",
                   sci_string(conv.energy_delay_per_op()),
                   sci_string(cim.energy_delay_per_op()),
                   fixed_string(conv.energy_delay_per_op() /
                                    cim.energy_delay_per_op(), 0) + "x"});
  verdict.add_row({"chip area",
                   fixed_string(conv.total_area.value() * 1e6, 1) + " mm2",
                   fixed_string(cim.total_area.value() * 1e6, 3) + " mm2",
                   ""});
  std::cout << verdict.to_text()
            << "\nPer-op latency favours the 252 ps CLA; the system-level\n"
               "energy-delay still favours CIM by >100x (Table 2).\n";
  return 0;
}
