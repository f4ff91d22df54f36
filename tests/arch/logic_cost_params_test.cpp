// Typed errors for a bad LogicCostModel: every consumer of the Table 1
// step and write quanta — the three fabrics, CimTile and isa::compile —
// throws memcim::Error for a t_step that is not finite and positive and
// for an e_write that is not finite and non-negative.  Left unchecked,
// a negative e_write booked negative compare energies, a t_step of 0 or
// NaN booked a zero tile latency, and a negative t_step booked negative
// gate latencies.
#include <gtest/gtest.h>

#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "arch/cim_tile.h"
#include "common/error.h"
#include "device/presets.h"
#include "isa/compiler.h"
#include "logic/crs_fabric.h"
#include "logic/device_fabric.h"
#include "logic/gates.h"
#include "logic/ideal_fabric.h"

namespace memcim {
namespace {

struct BadCost {
  std::string name;  ///< test-name suffix
  LogicCostModel cost;
};

// Name cases by label; gtest's default byte dump would print pointers.
void PrintTo(const BadCost& c, std::ostream* os) { *os << c.name; }

std::vector<BadCost> bad_costs() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const struct {
    const char* suffix;
    double value;
  } values[] = {{"minus_one", -1.0}, {"nan", nan}, {"inf", inf},
                {"minus_inf", -inf}};
  std::vector<BadCost> out;
  for (const auto& v : values) {
    BadCost t_step{std::string("t_step_") + v.suffix, {}};
    t_step.cost.t_step = Time(v.value);
    out.push_back(t_step);
    BadCost e_write{std::string("e_write_") + v.suffix, {}};
    e_write.cost.e_write = Energy(v.value);
    out.push_back(e_write);
  }
  BadCost zero_step{"t_step_zero", {}};
  zero_step.cost.t_step = Time(0.0);
  out.push_back(zero_step);
  return out;
}

class BadLogicCostModel : public ::testing::TestWithParam<BadCost> {};

TEST_P(BadLogicCostModel, EveryConsumerThrows) {
  const LogicCostModel& cost = GetParam().cost;
  EXPECT_THROW(IdealFabric{cost}, Error);
  EXPECT_THROW(CrsFabric(presets::crs_cell(), cost), Error);
  DeviceFabricParams device;
  device.device = presets::vcm_taox_logic();
  EXPECT_THROW(DeviceFabric(device, cost), Error);
  CimTileConfig tile;
  tile.rows = 4;
  tile.row_bits = 8;
  tile.cell = presets::crs_cell();
  tile.cost = cost;
  EXPECT_THROW(CimTile{tile}, Error);
  const CimProgram program = record_program(
      2, [](Fabric& f, const std::vector<Reg>& in) {
        return gate_and(f, in[0], in[1]);
      });
  isa::CompileOptions options;
  options.cost = cost;
  EXPECT_THROW((void)isa::compile(program, options), Error);
}

TEST(LogicCostModel, DefaultsAndAFreeWriteAreAccepted) {
  EXPECT_NO_THROW(check_logic_cost_model({}));
  LogicCostModel free_write;
  free_write.e_write = Energy(0.0);
  EXPECT_NO_THROW(IdealFabric{free_write});
}

INSTANTIATE_TEST_SUITE_P(
    Fields, BadLogicCostModel, ::testing::ValuesIn(bad_costs()),
    [](const ::testing::TestParamInfo<BadCost>& c) { return c.param.name; });

}  // namespace
}  // namespace memcim
