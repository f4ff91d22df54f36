#include "fault/fault_model.h"

#include <algorithm>

#include "common/error.h"

namespace memcim {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kStuckAtLrs: return "stuck-at-LRS";
    case FaultKind::kStuckAtHrs: return "stuck-at-HRS";
    case FaultKind::kWriteFail: return "write-fail";
    case FaultKind::kDrift: return "drift";
    case FaultKind::kReadDisturb: return "read-disturb";
  }
  return "?";
}

FaultPlan::FaultPlan(std::size_t population, std::uint64_t seed)
    : population_(population), seed_(seed) {}

FaultPlan::Site& FaultPlan::site_entry(std::size_t site) {
  auto [it, inserted] = sites_.try_emplace(site);
  if (inserted)
    it->second.events = Rng(splitmix64(seed_ ^ splitmix64(site + 1)));
  return it->second;
}

const FaultPlan::Site* FaultPlan::find(std::size_t site) const {
  const auto it = sites_.find(site);
  return it == sites_.end() ? nullptr : &it->second;
}

void FaultPlan::arm(const FaultSpec& spec) {
  MEMCIM_CHECK_MSG(spec.rate >= 0.0 && spec.rate <= 1.0,
                   "fault rate must be in [0, 1]");
  MEMCIM_CHECK_MSG(spec.event_prob >= 0.0 && spec.event_prob <= 1.0,
                   "event probability must be in [0, 1]");
  MEMCIM_CHECK_MSG(spec.magnitude >= 0.0 && spec.magnitude <= 1.0,
                   "drift magnitude must be in [0, 1]");
  // One private stream per (seed, spec order): arming a second class
  // never perturbs where the first one landed.
  Rng draw(splitmix64(seed_ ^ splitmix64(0xA9E1ull + specs_armed_)));
  ++specs_armed_;
  if (spec.rate <= 0.0) return;
  for (std::size_t s = 0; s < population_; ++s) {
    if (!draw.bernoulli(spec.rate)) continue;
    Site& entry = site_entry(s);
    switch (spec.kind) {
      case FaultKind::kStuckAtLrs: entry.stuck = true; break;
      case FaultKind::kStuckAtHrs: entry.stuck = false; break;
      case FaultKind::kWriteFail: entry.write_fail_prob = spec.event_prob; break;
      case FaultKind::kDrift: entry.drift = spec.magnitude; break;
      case FaultKind::kReadDisturb:
        entry.read_disturb_prob = spec.event_prob;
        break;
    }
    armed_.push_back({s, spec.kind, spec.event_prob, spec.magnitude});
  }
}

FaultPlan FaultPlan::draw(std::size_t population, std::uint64_t seed,
                          const std::vector<FaultSpec>& specs) {
  FaultPlan plan(population, seed);
  for (const FaultSpec& spec : specs) plan.arm(spec);
  return plan;
}

std::optional<bool> FaultPlan::stuck_bit(std::size_t site) const {
  const Site* s = find(site);
  return s != nullptr ? s->stuck : std::nullopt;
}

double FaultPlan::drift_at(std::size_t site) const {
  const Site* s = find(site);
  return s != nullptr ? s->drift : 0.0;
}

bool FaultPlan::write_fails(std::size_t site) {
  const auto it = sites_.find(site);
  if (it == sites_.end() || it->second.write_fail_prob <= 0.0) return false;
  return it->second.events.bernoulli(it->second.write_fail_prob);
}

bool FaultPlan::read_disturbed(std::size_t site) {
  const auto it = sites_.find(site);
  if (it == sites_.end() || it->second.read_disturb_prob <= 0.0) return false;
  return it->second.events.bernoulli(it->second.read_disturb_prob);
}

std::uint64_t FaultPlan::fingerprint() const {
  // Sort a copy so the digest is independent of arming order; FNV-1a
  // over the armed tuples.
  std::vector<ArmedFault> sorted = armed_;
  std::sort(sorted.begin(), sorted.end(),
            [](const ArmedFault& a, const ArmedFault& b) {
              if (a.site != b.site) return a.site < b.site;
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });
  std::uint64_t h = 0xCBF29CE484222325ull;
  const auto absorb = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ull;
  };
  absorb(population_);
  for (const ArmedFault& f : sorted) {
    absorb(f.site);
    absorb(static_cast<std::uint64_t>(f.kind));
    absorb(static_cast<std::uint64_t>(f.event_prob * 1e9));
    absorb(static_cast<std::uint64_t>(f.magnitude * 1e9));
  }
  return h;
}

}  // namespace memcim
