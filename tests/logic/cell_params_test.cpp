// Typed errors for bad CRS cell parameters: every structure built on
// the CRS cell model — CrsCell itself, CrsMemory, CrsCam and the
// TC-adder farm — throws memcim::Error for a threshold or read level
// that is not finite, and for a t_pulse, e_per_switch or r_lrs that is
// not finite and positive.  Left unchecked, a negative e_per_switch
// gave negative add energies and wrapped crs_cell.switch_energy_aj.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "crossbar/crs_memory.h"
#include "device/crs.h"
#include "device/presets.h"
#include "logic/cam.h"
#include "logic/packed_adder.h"

namespace memcim {
namespace {

struct BadField {
  std::string name;  ///< test-name suffix
  void (*set)(CrsCellParams&, double);
  double value;
};

std::vector<BadField> bad_fields() {
  using Setter = void (*)(CrsCellParams&, double);
  const struct {
    const char* name;
    Setter set;
    bool positive;  ///< must be positive too, not only finite
  } fields[] = {
      {"t_pulse", [](CrsCellParams& p, double v) { p.t_pulse = Time(v); },
       true},
      {"e_per_switch",
       [](CrsCellParams& p, double v) { p.e_per_switch = Energy(v); }, true},
      {"r_lrs", [](CrsCellParams& p, double v) { p.r_lrs = Resistance(v); },
       true},
      {"v_th1", [](CrsCellParams& p, double v) { p.v_th1 = Voltage(v); },
       false},
      {"v_th2", [](CrsCellParams& p, double v) { p.v_th2 = Voltage(v); },
       false},
      {"v_th3", [](CrsCellParams& p, double v) { p.v_th3 = Voltage(v); },
       false},
      {"v_th4", [](CrsCellParams& p, double v) { p.v_th4 = Voltage(v); },
       false},
      {"v_read", [](CrsCellParams& p, double v) { p.v_read = Voltage(v); },
       false},
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<BadField> out;
  for (const auto& f : fields) {
    const std::string name = f.name;
    if (f.positive) {
      out.push_back({name + "_zero", f.set, 0.0});
      out.push_back({name + "_minus_one", f.set, -1.0});
    }
    out.push_back({name + "_nan", f.set, nan});
    out.push_back({name + "_inf", f.set, inf});
    out.push_back({name + "_minus_inf", f.set, -inf});
  }
  return out;
}

class BadCellParams : public ::testing::TestWithParam<BadField> {};

TEST_P(BadCellParams, EveryCrsStructureThrows) {
  CrsCellParams cell = presets::crs_cell();
  GetParam().set(cell, GetParam().value);
  EXPECT_THROW(CrsCell{cell}, Error);
  EXPECT_THROW(CrsMemory(4, 4, cell), Error);
  CamConfig cam;
  cam.rows = 4;
  cam.word_bits = 4;
  cam.cell = cell;
  EXPECT_THROW(CrsCam{cam}, Error);
  EXPECT_THROW(PackedTcAdderFarm(4, 8, cell), Error);
}

INSTANTIATE_TEST_SUITE_P(
    Fields, BadCellParams, ::testing::ValuesIn(bad_fields()),
    [](const ::testing::TestParamInfo<BadField>& field) {
      return field.param.name;
    });

}  // namespace
}  // namespace memcim
