#include "support/vcm_fit.h"

#include <cmath>

#include "common/error.h"

namespace memcim {

VcmKineticsFit fit_vcm_kinetics(const std::vector<SwitchingPoint>& points,
                                Voltage v_write) {
  MEMCIM_CHECK_MSG(points.size() >= 2, "need at least two switching points");
  // ln t = ln t0 − (V − V_w)/v0  ⇒ regress y = ln t against x = V:
  // slope = −1/v0, intercept anchors t0 at V_w.
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  const auto n = static_cast<double>(points.size());
  for (const SwitchingPoint& p : points) {
    MEMCIM_CHECK(p.voltage.value() > 0.0 && p.switching_time.value() > 0.0);
    const double x = p.voltage.value();
    const double y = std::log(p.switching_time.value());
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double denom = n * sxx - sx * sx;
  MEMCIM_CHECK_MSG(std::abs(denom) > 1e-18,
                   "switching points need at least two distinct voltages");
  const double slope = (n * sxy - sx * sy) / denom;
  MEMCIM_CHECK_MSG(slope < 0.0,
                   "switching time must decrease with voltage (got a "
                   "non-negative slope)");
  const double intercept = (sy - slope * sx) / n;

  VcmKineticsFit fit;
  fit.kinetics_v0 = Voltage(-1.0 / slope);
  fit.t_switch = Time(std::exp(intercept + slope * v_write.value()));
  double sse = 0.0;
  for (const SwitchingPoint& p : points) {
    const double pred = intercept + slope * p.voltage.value();
    const double resid = std::log(p.switching_time.value()) - pred;
    sse += resid * resid;
  }
  fit.log_rmse = std::sqrt(sse / n);
  return fit;
}

VcmParams calibrated_vcm(const VcmParams& base,
                         const std::vector<SwitchingPoint>& points) {
  const VcmKineticsFit fit = fit_vcm_kinetics(points, base.v_write);
  VcmParams out = base;
  out.t_switch = fit.t_switch;
  out.kinetics_v0 = fit.kinetics_v0;
  return out;
}

Time measure_switching_time(const VcmParams& params, Voltage v,
                            Time resolution) {
  MEMCIM_CHECK(resolution.value() > 0.0);
  VcmDevice device(params, 0.0);
  MEMCIM_CHECK_MSG(device.switching_rate(v) > 0.0,
                   "bias below threshold: the device never switches");
  Time elapsed{0.0};
  // Cap at 10^7 steps — far beyond any calibrated regime.
  for (int step = 0; step < 10'000'000 && device.state() < 0.999; ++step) {
    device.apply(v, resolution);
    elapsed += resolution;
  }
  MEMCIM_CHECK_MSG(device.state() >= 0.999,
                   "device did not switch within the measurement cap");
  return elapsed;
}

}  // namespace memcim
