#include "device/vcm.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "device/presets.h"
#include "support/hfox_preset.h"

namespace memcim {
namespace {

using namespace memcim::literals;

TEST(Vcm, SubThresholdStateFrozen) {
  VcmDevice d(presets::vcm_taox(), 0.3);
  // Non-volatility: days of read-level bias change nothing.
  d.apply(0.5_V, 1.0_s);
  EXPECT_DOUBLE_EQ(d.state(), 0.3);
  d.apply(-0.5_V, 1.0_s);
  EXPECT_DOUBLE_EQ(d.state(), 0.3);
  EXPECT_EQ(d.switching_rate(0.79_V), 0.0);
  EXPECT_EQ(d.switching_rate(-0.79_V), 0.0);
}

TEST(Vcm, FullSetAtWriteVoltageInSwitchTime) {
  const VcmParams p = presets::vcm_taox();
  VcmDevice d(p, 0.0);
  d.apply(p.v_write, p.t_switch);  // one 200 ps pulse at 2 V
  EXPECT_DOUBLE_EQ(d.state(), 1.0);
  EXPECT_EQ(d.switch_count(), 1u);
}

TEST(Vcm, FullResetAtNegativeWriteVoltage) {
  const VcmParams p = presets::vcm_taox();
  VcmDevice d(p, 1.0);
  d.apply(-p.v_write, p.t_switch);
  EXPECT_DOUBLE_EQ(d.state(), 0.0);
}

TEST(Vcm, HalfSelectDisturbIsExponentiallySlow) {
  const VcmParams p = presets::vcm_taox();
  VcmDevice d(p, 0.0);
  // A half-selected cell sees v_write/2 = 1 V (above the 0.8 V
  // threshold, so it *does* creep — the voltage-time dilemma).
  d.apply(p.v_write / 2.0, p.t_switch);
  EXPECT_GT(d.state(), 0.0);
  EXPECT_LT(d.state(), 0.01);  // > 100× slower than a full write
}

TEST(Vcm, KineticsExponentialInOverdrive) {
  VcmDevice d(presets::vcm_taox(), 0.0);
  const double r1 = d.switching_rate(1.5_V);
  const double r2 = d.switching_rate(1.65_V);  // +v0 = one e-fold
  EXPECT_NEAR(r2 / r1, std::exp(1.0), 1e-9);
}

TEST(Vcm, LinearIvWhenNonlinearityZero) {
  VcmDevice d(presets::vcm_taox(), 1.0);
  const double g = d.params().g_on.value();
  EXPECT_NEAR(d.current(0.4_V).value(), g * 0.4, g * 1e-9);
  EXPECT_NEAR(d.current(-0.4_V).value(), -g * 0.4, g * 1e-9);
}

TEST(Vcm, NonlinearIvSuppressesHalfSelectCurrent) {
  VcmParams p = presets::vcm_taox();
  p.nonlinearity = 3.0;  // 1/V
  VcmDevice d(p, 1.0);
  const double i_full = d.current(2.0_V).value();
  const double i_half = d.current(1.0_V).value();
  // Ohmic device: ratio exactly 2; nonlinear: substantially more.
  EXPECT_GT(i_full / i_half, 3.0);
  // Still odd-symmetric.
  EXPECT_DOUBLE_EQ(d.current(-1.0_V).value(), -i_half);
}

TEST(Vcm, StateConductanceInterpolatesLinearly) {
  VcmDevice d(presets::vcm_taox(), 0.5);
  const auto& p = d.params();
  const double expect = 0.5 * (p.g_on.value() + p.g_off.value());
  EXPECT_NEAR(d.state_conductance().value(), expect, 1e-15);
}

TEST(Vcm, CloneAndSetState) {
  VcmDevice d(presets::vcm_taox(), 0.0);
  auto c = d.clone();
  c->set_state(1.0);
  EXPECT_DOUBLE_EQ(d.state(), 0.0);
  EXPECT_DOUBLE_EQ(c->state(), 1.0);
  c->set_state(2.0);  // clamped
  EXPECT_DOUBLE_EQ(c->state(), 1.0);
}

TEST(Vcm, FilamentaryShapeSuppressesPartialConductance) {
  VcmParams p = presets::vcm_taox();
  p.conductance_shape = 8.0;
  VcmDevice half(p, 0.5);
  VcmDevice half_linear(presets::vcm_taox(), 0.5);
  // Linear mix at x=0.5 conducts ~half of G_on; shape-8 keeps the
  // half-formed filament near G_off.
  EXPECT_GT(half_linear.state_conductance().value() /
                half.state_conductance().value(),
            50.0);
  // Endpoints unchanged.
  VcmDevice lrs(p, 1.0);
  EXPECT_DOUBLE_EQ(lrs.state_conductance().value(), p.g_on.value());
}

TEST(Vcm, SnapCompletesTransitionsPastThreshold) {
  const VcmParams p = presets::vcm_taox_logic();  // snap_x = 0.3
  VcmDevice d(p, 0.0);
  // A pulse that would reach x ≈ 0.35 gradually snaps to 1.
  d.apply(p.v_write, p.t_switch * 0.35);
  EXPECT_DOUBLE_EQ(d.state(), 1.0);
  // A pulse below the snap point stays partial.
  VcmDevice e(p, 0.0);
  e.apply(p.v_write, p.t_switch * 0.2);
  EXPECT_NEAR(e.state(), 0.2, 1e-9);
  // Symmetric on RESET: crossing (1 − snap) downward completes to 0.
  VcmDevice f(p, 1.0);
  f.apply(-p.v_write, p.t_switch * 0.35);
  EXPECT_DOUBLE_EQ(f.state(), 0.0);
}

TEST(Vcm, ShapeAndSnapValidation) {
  VcmParams p = presets::vcm_taox();
  p.conductance_shape = 0.5;  // must be >= 1
  EXPECT_THROW(VcmDevice{p}, Error);
  p = presets::vcm_taox();
  p.snap_x = 0.6;  // must be < 0.5
  EXPECT_THROW(VcmDevice{p}, Error);
}

TEST(Vcm, HfoxPresetIsSlowerThanTaox) {
  EXPECT_GT(presets::vcm_hfox().t_switch.value(),
            presets::vcm_taox().t_switch.value());
}

TEST(Vcm, ParameterValidation) {
  VcmParams p = presets::vcm_taox();
  p.v_th_set = Voltage(-0.1);
  EXPECT_THROW(VcmDevice{p}, Error);
  p = presets::vcm_taox();
  p.v_write = 0.5_V;  // below threshold
  EXPECT_THROW(VcmDevice{p}, Error);
  p = presets::vcm_taox();
  p.g_off = Conductance(0.0);
  EXPECT_THROW(VcmDevice{p}, Error);
}

}  // namespace
}  // namespace memcim
