#include "crossbar/selector.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace memcim {

SelectorIv diode_selector(Current saturation, Voltage thermal, double ideality) {
  MEMCIM_CHECK(saturation.value() > 0.0 && thermal.value() > 0.0 &&
               ideality >= 1.0);
  const double is = saturation.value();
  const double nvt = ideality * thermal.value();
  return SelectorIv{
      .current =
          [is, nvt](Voltage v) {
            // Clamp the exponent so pathological solver probes can't
            // overflow; 60·nVt is far above any array bias.
            const double e = std::min(v.value() / nvt, 60.0);
            return Current(is * (std::exp(e) - 1.0));
          },
      .name = "diode",
  };
}

SelectorIv nonlinear_selector(Conductance g_on, Voltage v0) {
  MEMCIM_CHECK(g_on.value() > 0.0 && v0.value() > 0.0);
  const double g = g_on.value();
  const double vv0 = v0.value();
  return SelectorIv{
      .current =
          [g, vv0](Voltage v) {
            const double e = std::clamp(v.value() / vv0, -60.0, 60.0);
            return Current(g * vv0 * std::sinh(e));
          },
      .name = "nonlinear",
  };
}

namespace {

/// Solve the internal node of a series stack: find the base-device
/// share v_d with f(v_d) = I_base(v_d) − I_series(v − v_d) = 0, where f
/// is strictly increasing.  Bisects at most 80 times, and stops once the
/// midpoint equals an end of the bracket: the ends are then adjacent
/// doubles (or one), so no later step could move the midpoint returned.
/// Over biases from −1.5 to 3 V on an OFF or ON VCM base that is 52–63
/// steps for the sinh selector and 52–80 for the diode.
Voltage solve_series_split(const Device& base,
                           const std::function<Current(Voltage)>& series_iv,
                           Voltage v) {
  double lo = std::min(0.0, v.value());
  double hi = std::max(0.0, v.value());
  for (int it = 0; it < 80; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) return Voltage(mid);
    const double f = base.current(Voltage(mid)).value() -
                     series_iv(Voltage(v.value() - mid)).value();
    if (f <= 0.0)
      lo = mid;
    else
      hi = mid;
  }
  return Voltage(0.5 * (lo + hi));
}

}  // namespace

// ---------------------------------------------------------------------------
// SelectorDevice
// ---------------------------------------------------------------------------

SelectorDevice::SelectorDevice(std::unique_ptr<Device> base, SelectorIv selector)
    : base_(std::move(base)), selector_(std::move(selector)) {
  MEMCIM_CHECK(base_ != nullptr && selector_.current != nullptr);
}

SelectorDevice::SelectorDevice(const SelectorDevice& other)
    : Device(other), base_(other.base_->clone()), selector_(other.selector_) {}

SelectorDevice& SelectorDevice::operator=(const SelectorDevice& other) {
  if (this != &other) {
    Device::operator=(other);
    base_ = other.base_->clone();
    selector_ = other.selector_;
  }
  return *this;
}

Voltage SelectorDevice::device_share(Voltage v) const {
  return solve_series_split(*base_, selector_.current, v);
}

Current SelectorDevice::current(Voltage v) const {
  return base_->current(device_share(v));
}

void SelectorDevice::apply(Voltage v, Time dt) {
  const Voltage vd = device_share(v);
  const Current i = base_->current(vd);
  const double x_before = base_->state();
  base_->apply(vd, dt);
  record_step(v, i, dt, x_before, base_->state());
}

std::unique_ptr<Device> SelectorDevice::clone() const {
  return std::make_unique<SelectorDevice>(*this);
}

// ---------------------------------------------------------------------------
// TransistorDevice
// ---------------------------------------------------------------------------

TransistorDevice::TransistorDevice(std::unique_ptr<Device> base, Resistance r_on,
                                   Resistance r_off)
    : base_(std::move(base)), r_on_(r_on), r_off_(r_off) {
  MEMCIM_CHECK(base_ != nullptr);
  MEMCIM_CHECK(r_on.value() > 0.0 && r_off.value() > r_on.value());
}

TransistorDevice::TransistorDevice(const TransistorDevice& other)
    : Device(other),
      base_(other.base_->clone()),
      r_on_(other.r_on_),
      r_off_(other.r_off_),
      enabled_(other.enabled_) {}

TransistorDevice& TransistorDevice::operator=(const TransistorDevice& other) {
  if (this != &other) {
    Device::operator=(other);
    base_ = other.base_->clone();
    r_on_ = other.r_on_;
    r_off_ = other.r_off_;
    enabled_ = other.enabled_;
  }
  return *this;
}

Current TransistorDevice::current(Voltage v) const {
  const Resistance rs = series_resistance();
  const auto channel_iv = [rs](Voltage vc) { return vc / rs; };
  const Voltage vd = solve_series_split(*base_, channel_iv, v);
  return base_->current(vd);
}

void TransistorDevice::apply(Voltage v, Time dt) {
  const Resistance rs = series_resistance();
  const auto channel_iv = [rs](Voltage vc) { return vc / rs; };
  const Voltage vd = solve_series_split(*base_, channel_iv, v);
  const Current i = base_->current(vd);
  const double x_before = base_->state();
  base_->apply(vd, dt);
  record_step(v, i, dt, x_before, base_->state());
}

std::unique_ptr<Device> TransistorDevice::clone() const {
  return std::make_unique<TransistorDevice>(*this);
}

}  // namespace memcim
