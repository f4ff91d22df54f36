#include "support/vcm_fit.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "device/presets.h"

namespace memcim {
namespace {

using namespace memcim::literals;

TEST(Fit, RecoversKnownKineticsExactly) {
  // Synthesize noiseless points from the model's own law and fit them.
  const VcmParams truth = presets::vcm_taox();  // t0=200ps, v0=0.15, Vw=2
  std::vector<SwitchingPoint> points;
  for (double v : {1.0, 1.4, 1.8, 2.2}) {
    const double t = truth.t_switch.value() *
                     std::exp(-(v - truth.v_write.value()) /
                              truth.kinetics_v0.value());
    points.push_back({Voltage(v), Time(t)});
  }
  const VcmKineticsFit fit = fit_vcm_kinetics(points, truth.v_write);
  EXPECT_NEAR(fit.kinetics_v0.value(), 0.15, 1e-9);
  EXPECT_NEAR(fit.t_switch.value(), 200e-12, 1e-18);
  EXPECT_NEAR(fit.log_rmse, 0.0, 1e-9);
}

TEST(Fit, RoundTripThroughSimulatedMeasurements) {
  // Measure the simulated device at several biases, fit, and check the
  // calibrated model reproduces the original behaviour.
  const VcmParams truth = presets::vcm_taox();
  std::vector<SwitchingPoint> points;
  for (double v : {1.2, 1.6, 2.0}) {
    points.push_back({Voltage(v),
                      measure_switching_time(truth, Voltage(v), 5.0_ps)});
  }
  const VcmParams calibrated = calibrated_vcm(truth, points);
  // Discretization bias of the 5 ps sampling is the only error source.
  EXPECT_NEAR(calibrated.kinetics_v0.value(), truth.kinetics_v0.value(),
              0.01);
  EXPECT_NEAR(calibrated.t_switch.value(), truth.t_switch.value(), 10e-12);
  // Behavioural check at an unseen voltage.
  const Time t_true = measure_switching_time(truth, 1.4_V, 5.0_ps);
  const Time t_cal = measure_switching_time(calibrated, 1.4_V, 5.0_ps);
  EXPECT_NEAR(t_cal.value(), t_true.value(), t_true.value() * 0.05);
}

TEST(Fit, PaperTaoxPointAnchorsTheModel) {
  // Ref [42]: sub-ns switching for TaOx at write bias; with a second
  // point an octave down in voltage the fit lands near the preset.
  const std::vector<SwitchingPoint> points{
      {2.0_V, 200.0_ps},
      {1.5_V, Time(200e-12 * std::exp(0.5 / 0.15))},
  };
  const VcmKineticsFit fit = fit_vcm_kinetics(points, 2.0_V);
  EXPECT_NEAR(fit.kinetics_v0.value(), 0.15, 1e-6);
  EXPECT_NEAR(fit.t_switch.value(), 200e-12, 1e-15);
}

TEST(Fit, Validation) {
  EXPECT_THROW((void)fit_vcm_kinetics({{2.0_V, 1.0_ns}}, 2.0_V), Error);
  // Same voltage twice: singular regression.
  EXPECT_THROW((void)fit_vcm_kinetics(
                   {{2.0_V, 1.0_ns}, {2.0_V, 2.0_ns}}, 2.0_V),
               Error);
  // Inverted characteristic (slower at higher V) is rejected.
  EXPECT_THROW((void)fit_vcm_kinetics(
                   {{1.0_V, 1.0_ns}, {2.0_V, 5.0_ns}}, 2.0_V),
               Error);
  // Sub-threshold measurement request.
  EXPECT_THROW((void)measure_switching_time(presets::vcm_taox(), 0.5_V,
                                            10.0_ps),
               Error);
}

}  // namespace
}  // namespace memcim
