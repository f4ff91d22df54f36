// The HfOx-class VCM preset at 10 nm feature size (paper ref [62]):
// slightly slower than the TaOx class, higher OFF/ON ratio (ref [46]).
// No binary simulates an HfOx device; the preset is kept with the test
// written for it.
#pragma once

#include "common/units.h"
#include "device/vcm.h"

namespace memcim::presets {

[[nodiscard]] inline VcmParams vcm_hfox() {
  using namespace memcim::literals;
  VcmParams p;
  p.g_on = 1.0 / 25.0_kohm;
  p.g_off = 1.0 / 50.0_Mohm;
  p.v_th_set = 0.9_V;
  p.v_th_reset = -1.0_V;
  p.v_write = 2.2_V;
  p.t_switch = 10.0_ns;  // ref [41]: "nanosecond switching"
  p.kinetics_v0 = 0.2_V;
  return p;
}

}  // namespace memcim::presets
