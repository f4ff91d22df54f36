// Device-parameter calibration from measured switching data.
//
// Section IV.A reports devices by (voltage, switching-time) points —
// "a minimum switching time of < 200 ps was shown for TaOx-based VCM
// devices [42]" — and the VCM model's voltage-time characteristic is
//
//     t_sw(V) = t₀ · exp(−(V − V_w)/v₀)
//
// i.e. ln t_sw is linear in V.  fit_vcm_kinetics() recovers (t_switch,
// kinetics_v0) from ≥2 measured points by least squares in log space:
// the calibration step any real device-model user performs before
// trusting architecture numbers.
//
// No binary calibrates a device: the presets carry the paper's numbers
// directly.  The fit is kept with the tests written for it.
#pragma once

#include <vector>

#include "device/vcm.h"

namespace memcim {

/// One measured switching point: at bias `voltage` the device switched
/// fully in `switching_time`.
struct SwitchingPoint {
  Voltage voltage;
  Time switching_time;
};

struct VcmKineticsFit {
  Time t_switch;        ///< switching time at the nominal write voltage
  Voltage kinetics_v0;  ///< exponential slope
  double log_rmse = 0.0;  ///< residual in ln(t) space
};

/// Least-squares fit of the VCM voltage-time characteristic.  `v_write`
/// anchors the returned t_switch (the model's nominal amplitude).
/// Requires ≥2 points at distinct voltages.
[[nodiscard]] VcmKineticsFit fit_vcm_kinetics(
    const std::vector<SwitchingPoint>& points, Voltage v_write);

/// Convenience: produce a calibrated parameter set from a baseline by
/// replacing its kinetics with the fit.
[[nodiscard]] VcmParams calibrated_vcm(const VcmParams& base,
                                       const std::vector<SwitchingPoint>& points);

/// Measure a device's actual switching time at a bias by simulation
/// (time to drive x from 0 to ≥0.999), for fit round-trip validation.
[[nodiscard]] Time measure_switching_time(const VcmParams& params, Voltage v,
                                          Time resolution);

}  // namespace memcim
