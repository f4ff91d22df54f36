#include "device/presets.h"

namespace memcim::presets {

using namespace memcim::literals;

VcmParams vcm_taox() {
  VcmParams p;
  p.g_on = 1.0 / 10.0_kohm;
  p.g_off = 1.0 / 10.0_Mohm;  // OFF/ON = 1000 (ref [46] reports >1e3)
  p.v_th_set = 0.8_V;
  p.v_th_reset = -0.8_V;
  p.v_write = 2.0_V;
  p.t_switch = 200.0_ps;  // ref [42]
  p.kinetics_v0 = 0.15_V;
  return p;
}

VcmParams vcm_taox_logic() {
  VcmParams p = vcm_taox();
  p.kinetics_v0 = 0.10_V;
  p.conductance_shape = 8.0;
  p.snap_x = 0.3;
  return p;
}

EcmParams ecm_ag() {
  EcmParams p;
  p.g_on = 1.0 / 25.0_kohm;
  p.g_off = 1.0 / 100.0_Mohm;
  p.v_th_set = 0.25_V;
  p.v_th_reset = -0.15_V;
  p.v_write = 1.0_V;
  p.t_switch = 10.0_ns;  // ref [64]
  p.kinetics_v0 = 0.1_V;
  p.reset_asymmetry = 3.0;
  return p;
}

LinearIonDriftParams ion_drift_tio2() {
  LinearIonDriftParams p;
  p.r_on = 100.0_ohm;
  p.r_off = 16.0_kohm;  // OFF/ON = 160, the Strukov Nature device
  p.depth = 10.0_nm;
  p.mobility = 1e-14;
  p.window = WindowFunction::kJoglekar;
  p.window_p = 1.0;
  return p;
}

CrsCellParams crs_cell() {
  CrsCellParams p;
  p.v_th1 = 1.0_V;
  p.v_th2 = 2.0_V;
  p.v_th3 = -1.0_V;
  p.v_th4 = -2.0_V;
  p.v_read = 1.5_V;
  p.t_pulse = 200.0_ps;     // Table 1: memristor write time
  p.e_per_switch = 1.0_fJ;  // Table 1: dynamic energy per write
  p.r_lrs = 10.0_kohm;
  return p;
}

std::unique_ptr<CrsDevice> make_crs_ecm() {
  const EcmParams p = ecm_ag();
  // '0' state: A HRS, B LRS.
  auto a = std::make_unique<EcmDevice>(p, 0.0);
  auto b = std::make_unique<EcmDevice>(p, 1.0);
  return std::make_unique<CrsDevice>(std::move(a), std::move(b));
}

std::unique_ptr<CrsDevice> make_crs_vcm() {
  const VcmParams p = vcm_taox();
  auto a = std::make_unique<VcmDevice>(p, 0.0);
  auto b = std::make_unique<VcmDevice>(p, 1.0);
  return std::make_unique<CrsDevice>(std::move(a), std::move(b));
}

}  // namespace memcim::presets
