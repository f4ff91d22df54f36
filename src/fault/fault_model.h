// Fault models and the seeded, reproducible FaultPlan — the root of
// the reliability subsystem.
//
// Section IV.A/B of the paper surveys exactly the defects modelled
// here: finite endurance leaves devices stuck (stuck-at-LRS reads a
// permanent logic 1, stuck-at-HRS a permanent 0), weak programming
// pulses fail to switch (write failure), conductance relaxes over time
// (drift), and half-selected reads upset neighbours (read disturb).
// A FaultPlan draws a deterministic set of armed faults over a
// population of fault *sites* (crossbar junctions, memory cells,
// fabric registers — the binding is the consumer's) from a single
// seed, so every campaign is reproducible bit-for-bit and independent
// of thread count.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.h"

namespace memcim {

enum class FaultKind : std::uint8_t {
  kStuckAtLrs,   ///< SA1: device pinned low-resistive, reads logic 1
  kStuckAtHrs,   ///< SA0: device pinned high-resistive, reads logic 0
  kWriteFail,    ///< weak device: each write fails with event_prob
  kDrift,        ///< conductance relaxed toward the divide by magnitude
  kReadDisturb,  ///< each read returns a flipped bit with event_prob
};

[[nodiscard]] const char* to_string(FaultKind k);

/// One fault class to arm over the population.
struct FaultSpec {
  FaultKind kind = FaultKind::kStuckAtLrs;
  /// Fraction of sites armed with this fault (per-site Bernoulli).
  double rate = 0.0;
  /// Per-event probability for kWriteFail / kReadDisturb.
  double event_prob = 1.0;
  /// State displacement toward 0.5 for kDrift, in [0, 1].
  double magnitude = 0.25;
};

/// One armed fault instance, as drawn.
struct ArmedFault {
  std::size_t site = 0;
  FaultKind kind = FaultKind::kStuckAtLrs;
  double event_prob = 1.0;
  double magnitude = 0.0;
};

/// A reproducible assignment of faults to sites.
///
/// Arming walks the population in site order drawing from an Rng
/// seeded only by (seed, spec order), and per-event randomness
/// (write-fail, read-disturb) comes from a per-site stream derived
/// from (seed, site) — so outcomes depend on each site's own event
/// order, never on cross-site interleaving or the thread count.
class FaultPlan {
 public:
  FaultPlan(std::size_t population, std::uint64_t seed);

  /// Draw and arm one fault class; callable repeatedly.  When two
  /// stuck-at specs hit the same site, the later arm wins.
  void arm(const FaultSpec& spec);

  /// Convenience: build a plan and arm every spec in order.
  [[nodiscard]] static FaultPlan draw(std::size_t population,
                                      std::uint64_t seed,
                                      const std::vector<FaultSpec>& specs);

  [[nodiscard]] std::size_t population() const { return population_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] std::size_t armed_count() const { return armed_.size(); }
  [[nodiscard]] const std::vector<ArmedFault>& armed() const { return armed_; }

  // -- per-site queries (sites outside the population are fault-free) -------
  /// Pinned logic value of a stuck site; nullopt when not stuck.
  [[nodiscard]] std::optional<bool> stuck_bit(std::size_t site) const;
  /// Drift displacement toward 0.5 at this site (0 when unarmed).
  [[nodiscard]] double drift_at(std::size_t site) const;

  // -- per-event draws (mutate the site's private stream) -------------------
  [[nodiscard]] bool write_fails(std::size_t site);
  [[nodiscard]] bool read_disturbed(std::size_t site);

  /// Order-independent digest of the armed set — the witness the
  /// reproducibility tests compare plans through.
  [[nodiscard]] std::uint64_t fingerprint() const;

 private:
  struct Site {
    std::optional<bool> stuck;
    double write_fail_prob = 0.0;
    double read_disturb_prob = 0.0;
    double drift = 0.0;
    Rng events{0};
  };

  [[nodiscard]] Site& site_entry(std::size_t site);
  [[nodiscard]] const Site* find(std::size_t site) const;

  std::size_t population_;
  std::uint64_t seed_;
  std::size_t specs_armed_ = 0;
  std::vector<ArmedFault> armed_;
  std::unordered_map<std::size_t, Site> sites_;
};

}  // namespace memcim
