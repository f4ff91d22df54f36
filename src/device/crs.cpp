#include "device/crs.h"

#include <cmath>

#include "common/error.h"
#include "telemetry/telemetry.h"

namespace memcim {

using namespace memcim::literals;

namespace {

/// Process-wide CrsCell tallies.  Energy is accumulated as integer
/// attojoules so the cross-layer energy metric is an exact u64 sum
/// (thread-count deterministic), matching the per-cell double book.
struct CellMetrics {
  telemetry::Counter& pulses;
  telemetry::Counter& transitions;
  telemetry::Counter& energy_aj;
  telemetry::Counter& stuck_absorbed;
  CellMetrics()
      : pulses(telemetry::Registry::global().counter("crs_cell.pulses")),
        transitions(
            telemetry::Registry::global().counter("crs_cell.transitions")),
        energy_aj(telemetry::Registry::global().counter(
            "crs_cell.switch_energy_aj")),
        stuck_absorbed(telemetry::Registry::global().counter(
            "crs_cell.stuck_absorbed")) {}
};

CellMetrics& cell_metrics() {
  static CellMetrics m;
  return m;
}

}  // namespace

const char* to_string(CrsState s) {
  switch (s) {
    case CrsState::kZero: return "0";
    case CrsState::kOne: return "1";
    case CrsState::kOn: return "ON";
    case CrsState::kUndefined: return "undef";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// CrsDevice
// ---------------------------------------------------------------------------

CrsDevice::CrsDevice(std::unique_ptr<Device> a, std::unique_ptr<Device> b)
    : a_(std::move(a)), b_(std::move(b)) {
  MEMCIM_CHECK_MSG(a_ && b_, "CrsDevice needs two constituent devices");
}

CrsDevice::CrsDevice(const CrsDevice& other)
    : Device(other), a_(other.a_->clone()), b_(other.b_->clone()) {}

CrsDevice& CrsDevice::operator=(const CrsDevice& other) {
  if (this != &other) {
    Device::operator=(other);
    a_ = other.a_->clone();
    b_ = other.b_->clone();
  }
  return *this;
}

Voltage CrsDevice::split_voltage(Voltage v) const {
  // Solve I_A(v_a) = I_B(v - v_a) for the internal node.  B is mounted
  // anti-serially; with odd instantaneous I–V characteristics the stack
  // current through B equals I_B evaluated at the stack-frame drop.
  // f(v_a) = I_A(v_a) − I_B(v − v_a) is strictly increasing → bisection.
  double lo = std::min(0.0, v.value());
  double hi = std::max(0.0, v.value());
  auto f = [&](double va) {
    return a_->current(Voltage(va)).value() -
           b_->current(Voltage(v.value() - va)).value();
  };
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (f(mid) <= 0.0)
      lo = mid;
    else
      hi = mid;
  }
  return Voltage(0.5 * (lo + hi));
}

Current CrsDevice::current(Voltage v) const {
  const Voltage va = split_voltage(v);
  return a_->current(va);
}

void CrsDevice::apply(Voltage v, Time dt) {
  const Voltage va = split_voltage(v);
  const Voltage vb_stack = v - va;
  const Current i = a_->current(va);
  const double x_before = state();
  a_->apply(va, dt);
  // In B's own frame the anti-serial mounting flips the sign.
  b_->apply(-vb_stack, dt);
  record_step(v, i, dt, x_before, state());
}

double CrsDevice::state() const {
  return std::min(a_->state(), b_->state());
}

void CrsDevice::set_state(double x) {
  a_->set_state(x);
  b_->set_state(x);
}

std::unique_ptr<Device> CrsDevice::clone() const {
  return std::make_unique<CrsDevice>(*this);
}

CrsState CrsDevice::logic_state() const {
  const bool a_lrs = a_->is_lrs();
  const bool b_lrs = b_->is_lrs();
  if (a_lrs && b_lrs) return CrsState::kOn;
  if (a_lrs && !b_lrs) return CrsState::kOne;
  if (!a_lrs && b_lrs) return CrsState::kZero;
  return CrsState::kUndefined;
}

void CrsDevice::force_state(CrsState s) {
  switch (s) {
    case CrsState::kZero:
      a_->set_state(0.0);
      b_->set_state(1.0);
      break;
    case CrsState::kOne:
      a_->set_state(1.0);
      b_->set_state(0.0);
      break;
    case CrsState::kOn:
      a_->set_state(1.0);
      b_->set_state(1.0);
      break;
    case CrsState::kUndefined:
      a_->set_state(0.0);
      b_->set_state(0.0);
      break;
  }
}

std::vector<IvPoint> sweep_iv(CrsDevice& crs, Voltage v_max,
                              std::size_t steps_per_leg, Time dwell) {
  MEMCIM_CHECK(steps_per_leg >= 2);
  std::vector<IvPoint> trace;
  trace.reserve(4 * steps_per_leg);
  auto leg = [&](double from, double to) {
    for (std::size_t k = 0; k < steps_per_leg; ++k) {
      const double frac =
          static_cast<double>(k) / static_cast<double>(steps_per_leg - 1);
      const Voltage v(from + (to - from) * frac);
      crs.apply(v, dwell);
      trace.push_back({v, crs.current(v), crs.logic_state()});
    }
  };
  leg(0.0, v_max.value());
  leg(v_max.value(), 0.0);
  leg(0.0, -v_max.value());
  leg(-v_max.value(), 0.0);
  return trace;
}

// ---------------------------------------------------------------------------
// CrsCell
// ---------------------------------------------------------------------------

void check_crs_cell_params(const CrsCellParams& params) {
  MEMCIM_CHECK_MSG(std::isfinite(params.v_th1.value()) &&
                       std::isfinite(params.v_th2.value()) &&
                       std::isfinite(params.v_th3.value()) &&
                       std::isfinite(params.v_th4.value()) &&
                       std::isfinite(params.v_read.value()),
                   "CRS thresholds and v_read must be finite");
  for (const double positive : {params.t_pulse.value(),
                                params.e_per_switch.value(),
                                params.r_lrs.value()})
    MEMCIM_CHECK_MSG(std::isfinite(positive) && positive > 0.0,
                     "t_pulse, e_per_switch and r_lrs must be finite and "
                     "positive");
  MEMCIM_CHECK_MSG(params.v_th1.value() > 0.0 &&
                       params.v_th2.value() > params.v_th1.value(),
                   "require 0 < v_th1 < v_th2");
  MEMCIM_CHECK_MSG(params.v_th3.value() < 0.0 &&
                       params.v_th4.value() < params.v_th3.value(),
                   "require v_th4 < v_th3 < 0");
  MEMCIM_CHECK_MSG(params.v_read.value() > params.v_th1.value() &&
                       params.v_read.value() < params.v_th2.value(),
                   "v_read must lie in (v_th1, v_th2)");
}

void detail::book_crs_cell_events(const CrsCellParams& params,
                                  std::uint64_t pulses,
                                  std::uint64_t transitions,
                                  std::uint64_t absorbed) {
  if (!telemetry::enabled()) return;
  CellMetrics& m = cell_metrics();
  m.pulses.add(pulses);
  if (transitions != 0) {
    m.transitions.add(transitions);
    m.energy_aj.add(transitions * static_cast<std::uint64_t>(std::llround(
                                      params.e_per_switch.value() * 1e18)));
  }
  if (absorbed != 0) m.stuck_absorbed.add(absorbed);
}

CrsCell::CrsCell(const CrsCellParams& params, CrsState initial)
    : params_(params), state_(initial) {
  check_crs_cell_params(params_);
}

void CrsCell::force_stuck(CrsState pinned) {
  stuck_ = pinned;
  state_ = pinned;
}

void CrsCell::clear_stuck() { stuck_.reset(); }

void CrsCell::set_state(CrsState s) {
  if (stuck_) return;  // a pinned device ignores modelling fixups too
  state_ = s;
}

void CrsCell::transition_to(CrsState next) {
  if (stuck_) {
    // A stuck device absorbs the pulse unchanged: no transition and —
    // consistently with energy_ below — no switching energy.  The
    // telemetry branch sits on this cold path only.
    if (next != state_ && telemetry::enabled())
      cell_metrics().stuck_absorbed.add(1);
    return;
  }
  if (next != state_) {
    state_ = next;
    energy_ += params_.e_per_switch;
    ++transitions_;
  }
}

void CrsCell::apply_pulse(Voltage v) {
  ++pulses_;
  const std::uint64_t transitions_before = transitions_;
  step_state(v.value());
  // One telemetry sync per pulse — the whole disabled-mode cost of the
  // cell hot path is this single predictable branch.
  if (telemetry::enabled()) {
    CellMetrics& m = cell_metrics();
    m.pulses.add(1);
    if (transitions_ != transitions_before) {
      m.transitions.add(1);
      m.energy_aj.add(static_cast<std::uint64_t>(
          std::llround(params_.e_per_switch.value() * 1e18)));
    }
  }
}

void CrsCell::step_state(double vv) {
  // Positive branch: '0' --(>vth1)--> ON --(>vth2)--> '1'.
  if (vv >= params_.v_th2.value()) {
    if (state_ == CrsState::kZero || state_ == CrsState::kOn)
      transition_to(CrsState::kOne);
    return;
  }
  if (vv >= params_.v_th1.value()) {
    if (state_ == CrsState::kZero) transition_to(CrsState::kOn);
    return;
  }
  // Negative branch: '1' --(<vth3)--> ON --(<vth4)--> '0'.
  if (vv <= params_.v_th4.value()) {
    if (state_ == CrsState::kOne || state_ == CrsState::kOn)
      transition_to(CrsState::kZero);
    return;
  }
  if (vv <= params_.v_th3.value()) {
    if (state_ == CrsState::kOne) transition_to(CrsState::kOn);
    return;
  }
  // |v| below both first thresholds: no state change — this is exactly
  // why CRS arrays are sneak-path free.
}

void CrsCell::write(bool bit) {
  apply_pulse(bit ? params_.v_th2 * 1.1 : params_.v_th4 * 1.1);
}

CrsReadResult CrsCell::read() {
  const CrsState before = state_;
  apply_pulse(params_.v_read);
  CrsReadResult r;
  r.destructive = (before == CrsState::kZero && state_ == CrsState::kOn);
  r.bit = !r.destructive && before == CrsState::kOne;
  if (r.destructive || before == CrsState::kOn) {
    // ON cell at v_read conducts through two LRS devices in series.
    r.spike = params_.v_read / (params_.r_lrs * 2.0);
  }
  return r;
}

CrsReadResult CrsCell::read_with_writeback() {
  CrsReadResult r = read();
  if (r.destructive) write(false);
  return r;
}

}  // namespace memcim
