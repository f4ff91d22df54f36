// Named device parameter presets calibrated to the technologies the
// paper cites in Section IV.A and Table 1.  Each factory documents the
// paper's source for its headline numbers.
#pragma once

#include <memory>

#include "device/crs.h"
#include "device/ecm.h"
#include "device/linear_ion_drift.h"
#include "device/vcm.h"

namespace memcim::presets {

/// TaOx-class VCM: < 200 ps switching (paper ref [42]), the device class
/// whose write time anchors the CIM step time of Table 1.
[[nodiscard]] VcmParams vcm_taox();

/// TaOx VCM tuned for stateful (IMPLY) logic: abrupt filamentary
/// conductance (shape 8), snap-to-completion, steep kinetics — the
/// properties Kvatinsky et al. (paper ref [58]) require so a
/// half-finished output does not collapse the shared-node drive.
[[nodiscard]] VcmParams vcm_taox_logic();

/// Ag-chalcogenide / Ag-MSQ ECM cell: < 10 ns switching (ref [64]),
/// > 1e10 cycles (ref [65]).
[[nodiscard]] EcmParams ecm_ag();

/// Strukov TiO₂ ion-drift reference device (ref [39]).
[[nodiscard]] LinearIonDriftParams ion_drift_tio2();

/// Behavioural CRS thresholds consistent with Figure 4 and the ECM pair
/// of ref [78] (Vth1 ≈ Vset, Vth2 ≈ Vset + Vreset amplitudes).
[[nodiscard]] CrsCellParams crs_cell();

/// Circuit-level CRS built from two ECM devices (the device pairing of
/// the original Linn et al. demonstration).
[[nodiscard]] std::unique_ptr<CrsDevice> make_crs_ecm();

/// Circuit-level CRS built from two VCM devices (fast TaOx variant).
[[nodiscard]] std::unique_ptr<CrsDevice> make_crs_vcm();

}  // namespace memcim::presets
