#include "crossbar/crossbar.h"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <utility>

#include "common/error.h"
#include "device/presets.h"
#include "device/vcm.h"

namespace memcim {
namespace {

using namespace memcim::literals;

VcmDevice lrs_proto() { return VcmDevice(presets::vcm_taox(), 1.0); }

CrossbarConfig lumped(std::size_t n) {
  CrossbarConfig cfg;
  cfg.rows = n;
  cfg.cols = n;
  cfg.model = NetworkModel::kLumpedLines;
  return cfg;
}

TEST(Crossbar, SingleCellOhmsLaw) {
  CrossbarArray xbar(lumped(1), lrs_proto());
  LineBias bias;
  bias.rows = {Voltage(1.0)};
  bias.cols = {Voltage(0.0)};
  const auto sol = xbar.solve(bias);
  ASSERT_TRUE(sol.converged);
  // R_on = 10 kΩ → 100 µA.
  EXPECT_NEAR(sol.device_current[0], 1e-4, 1e-9);
  EXPECT_NEAR(sol.row_terminal_current[0], 1e-4, 1e-9);
  EXPECT_NEAR(sol.col_terminal_current[0], -1e-4, 1e-9);
}

TEST(Crossbar, SneakPathThroughThreeDevices) {
  // Classic 2×2 sneak path: target (0,0) HRS, other three LRS, floating
  // unaccessed lines.  The sneak path (0,1)-(1,1)-(1,0) is three LRS
  // devices in series: i_sneak ≈ V / (3·R_on).
  CrossbarArray xbar(lumped(2), lrs_proto());
  xbar.store_bit(0, 0, false);
  const LineBias bias = access_bias(2, 2, 0, 0, 1.0_V, BiasScheme::kFloating);
  const auto sol = xbar.solve(bias);
  ASSERT_TRUE(sol.converged);
  const double i_col = -sol.col_terminal_current[0];
  const double i_direct = 1.0 / 10e6;     // HRS target
  const double i_sneak = 1.0 / (3 * 10e3);  // 3 LRS in series
  EXPECT_NEAR(i_col, i_direct + i_sneak, (i_direct + i_sneak) * 0.01);
  // The floating line voltages split the sneak path: intermediate nodes
  // at ~2/3 V and ~1/3 V.
  EXPECT_NEAR(sol.col_voltage[1], 2.0 / 3.0, 0.01);
  EXPECT_NEAR(sol.row_voltage[1], 1.0 / 3.0, 0.01);
}

TEST(Crossbar, GroundedSchemeKillsSneakCurrent) {
  CrossbarArray xbar(lumped(2), lrs_proto());
  xbar.store_bit(0, 0, false);
  const LineBias bias = access_bias(2, 2, 0, 0, 1.0_V, BiasScheme::kGrounded);
  const auto sol = xbar.solve(bias);
  // Unselected cells have 0 V across them → only the HRS leak flows.
  EXPECT_NEAR(-sol.col_terminal_current[0], 1.0 / 10e6, 1e-9);
  EXPECT_NEAR(sol.device_voltage[1 * 2 + 1], 0.0, 1e-9);
}

TEST(Crossbar, VHalfDeviceVoltages) {
  CrossbarArray xbar(lumped(3), lrs_proto());
  const LineBias bias = access_bias(3, 3, 0, 0, 2.0_V, BiasScheme::kVHalf);
  const auto sol = xbar.solve(bias);
  EXPECT_NEAR(sol.device_voltage[0], 2.0, 1e-9);   // selected
  EXPECT_NEAR(sol.device_voltage[1], 1.0, 1e-9);   // half-selected (row)
  EXPECT_NEAR(sol.device_voltage[3], 1.0, 1e-9);   // half-selected (col)
  EXPECT_NEAR(sol.device_voltage[4], 0.0, 1e-9);   // unselected
}

TEST(Crossbar, CurrentConservationAcrossTerminals) {
  CrossbarArray xbar(lumped(4), lrs_proto());
  // Random-ish stored pattern.
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) xbar.store_bit(r, c, (r + c) % 2 == 0);
  const LineBias bias = access_bias(4, 4, 2, 1, 1.5_V, BiasScheme::kVThird);
  const auto sol = xbar.solve(bias);
  const double in = std::accumulate(sol.row_terminal_current.begin(),
                                    sol.row_terminal_current.end(), 0.0);
  const double out = std::accumulate(sol.col_terminal_current.begin(),
                                     sol.col_terminal_current.end(), 0.0);
  EXPECT_NEAR(in + out, 0.0, 1e-12);  // KCL over the whole array
}

TEST(Crossbar, DriverResistanceDroopsLineVoltage) {
  CrossbarConfig cfg = lumped(4);
  cfg.driver = 10.0_kohm;  // comparable to R_on: visible droop
  CrossbarArray xbar(cfg, lrs_proto());
  const LineBias bias = access_bias(4, 4, 0, 0, 1.0_V, BiasScheme::kGrounded);
  const auto sol = xbar.solve(bias);
  // The selected row feeds 4 LRS devices; its node must sag well below 1 V.
  EXPECT_LT(sol.row_voltage[0], 0.9);
  EXPECT_GT(sol.row_voltage[0], 0.1);
  // Terminal current equals the droop over the driver resistance.
  EXPECT_NEAR(sol.row_terminal_current[0],
              (1.0 - sol.row_voltage[0]) / 10e3, 1e-9);
}

TEST(Crossbar, DistributedMatchesLumpedWhenWiresAreIdeal) {
  const std::size_t n = 4;
  CrossbarConfig lump = lumped(n);
  CrossbarConfig dist = lumped(n);
  dist.model = NetworkModel::kDistributed;
  dist.wire_segment = Resistance(1e-6);  // essentially ideal wires
  CrossbarArray a(lump, lrs_proto());
  CrossbarArray b(dist, lrs_proto());
  a.store_bit(1, 2, false);
  b.store_bit(1, 2, false);
  const LineBias bias = access_bias(n, n, 0, 0, 1.0_V, BiasScheme::kVHalf);
  const auto sa = a.solve(bias);
  const auto sb = b.solve(bias);
  for (std::size_t i = 0; i < n * n; ++i)
    EXPECT_NEAR(sa.device_voltage[i], sb.device_voltage[i], 1e-3);
  EXPECT_NEAR(-sa.col_terminal_current[0], -sb.col_terminal_current[0],
              std::abs(sa.col_terminal_current[0]) * 0.01);
}

TEST(Crossbar, DistributedShowsIrDropAlongLines) {
  CrossbarConfig cfg = lumped(8);
  cfg.model = NetworkModel::kDistributed;
  cfg.wire_segment = 500.0_ohm;  // deliberately resistive wires
  CrossbarArray xbar(cfg, lrs_proto());
  const LineBias bias = access_bias(8, 8, 0, 0, 1.0_V, BiasScheme::kGrounded);
  const auto sol = xbar.solve(bias);
  // Drivers sit at column 0 (rows) and row 0 (cols): the far-corner
  // device (0,7) must see less voltage than the near device (0,0).
  EXPECT_LT(sol.device_voltage[7], sol.device_voltage[0] - 0.05);
  EXPECT_GT(sol.device_voltage[0], 0.5);
}

TEST(Crossbar, ApplyPulseWritesSelectedCellOnly) {
  CrossbarConfig cfg = lumped(4);
  CrossbarArray xbar(cfg, VcmDevice(presets::vcm_taox(), 0.0));
  const VcmParams p = presets::vcm_taox();
  const LineBias bias = access_bias(4, 4, 1, 1, p.v_write, BiasScheme::kVHalf);
  (void)xbar.apply_pulse(bias, p.t_switch);
  EXPECT_TRUE(xbar.device(1, 1).is_lrs());
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) {
      if (r == 1 && c == 1) continue;
      EXPECT_LT(xbar.device(r, c).state(), 0.05)
          << "disturb at (" << r << ',' << c << ')';
    }
}

TEST(Crossbar, PulseEnergyIsAccounted) {
  CrossbarArray xbar(lumped(2), lrs_proto());
  EXPECT_DOUBLE_EQ(xbar.total_device_energy().value(), 0.0);
  const LineBias bias = access_bias(2, 2, 0, 0, 1.0_V, BiasScheme::kGrounded);
  (void)xbar.apply_pulse(bias, 1.0_ns);
  // Selected LRS cell: 1 V² / 10 kΩ · 1 ns = 0.1 pJ (plus row leakage).
  EXPECT_GT(xbar.total_device_energy().value(), 0.9e-13);
}

TEST(Crossbar, NonlinearJunctionsConverge) {
  VcmParams p = presets::vcm_taox();
  p.nonlinearity = 3.0;
  CrossbarConfig cfg = lumped(4);
  CrossbarArray xbar(cfg, VcmDevice(p, 1.0));
  const LineBias bias = access_bias(4, 4, 0, 0, 1.0_V, BiasScheme::kFloating);
  const auto sol = xbar.solve(bias);
  EXPECT_TRUE(sol.converged);
  EXPECT_GT(sol.nonlinear_iterations, 1u);
  // Floating intermediate lines must sit strictly inside (0, 1 V).
  EXPECT_GT(sol.row_voltage[1], 0.0);
  EXPECT_LT(sol.row_voltage[1], 1.0);
}

TEST(Crossbar, LargeArrayUsesIterativeSolverAndConverges) {
  CrossbarArray xbar(lumped(128), lrs_proto());  // 256 floating unknowns → CG
  const LineBias bias =
      access_bias(128, 128, 0, 0, 1.0_V, BiasScheme::kFloating);
  const auto sol = xbar.solve(bias);
  EXPECT_TRUE(sol.converged);
  EXPECT_GT(-sol.col_terminal_current[0], 0.0);
}

TEST(Crossbar, ConfigValidation) {
  CrossbarConfig cfg;  // rows = cols = 0
  EXPECT_THROW(CrossbarArray(cfg, lrs_proto()), Error);
  // Past kMaxCrsCells junctions, including a shape whose rows·cols wraps
  // to 0, and non-finite resistances throw before the array is
  // allocated (an allocation this size would throw std::bad_alloc).
  const std::size_t two32 = std::size_t{1} << 32;
  for (const auto& [rows, cols] :
       {std::pair{two32, two32}, std::pair{two32 + 1, std::size_t{2}},
        std::pair{std::size_t{3}, two32}}) {
    cfg = lumped(1);
    cfg.rows = rows;
    cfg.cols = cols;
    EXPECT_THROW(CrossbarArray(cfg, lrs_proto()), Error) << rows << "x" << cols;
  }
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double ohms : {inf, -inf, nan, -1.0}) {
    cfg = lumped(2);
    cfg.driver = Resistance(ohms);
    EXPECT_THROW(CrossbarArray(cfg, lrs_proto()), Error) << "driver " << ohms;
  }
  for (double ohms : {inf, nan, 0.0, -1.0}) {
    cfg = lumped(2);
    cfg.wire_segment = Resistance(ohms);
    EXPECT_THROW(CrossbarArray(cfg, lrs_proto()), Error) << "wire " << ohms;
  }
  cfg = lumped(2);
  cfg.model = NetworkModel::kDistributed;
  cfg.rows = cfg.cols = 512;  // distributed capped at 256×256
  CrossbarArray big(cfg, lrs_proto());
  LineBias bias = access_bias(512, 512, 0, 0, 1.0_V, BiasScheme::kGrounded);
  EXPECT_THROW((void)big.solve(bias), Error);
}

TEST(Crossbar, BiasSizeMismatchThrows) {
  CrossbarArray xbar(lumped(2), lrs_proto());
  LineBias bias;
  bias.rows.assign(3, Voltage(0.0));
  bias.cols.assign(2, Voltage(0.0));
  EXPECT_THROW((void)xbar.solve(bias), Error);
}

TEST(Crossbar, StoreAndReadBackPattern) {
  CrossbarArray xbar(lumped(3), lrs_proto());
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      xbar.store_bit(r, c, (r * 3 + c) % 2 == 0);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_EQ(xbar.stored_bit(r, c), (r * 3 + c) % 2 == 0);
}

}  // namespace
}  // namespace memcim
