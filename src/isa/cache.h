// The compiled-program cache: compile once, replay many.
//
// The PR-5 packed_adder fast path hand-cached one kernel; this cache
// generalizes it to every recorded workload.  Artifacts are keyed by
// (workload name, shape, fabric signature) — the same kernel recorded
// for a different word width, or compiled for a fabric with different
// step quanta, is a different artifact.  Lookups and fills book
// `compiler.cache.hits` / `compiler.cache.misses`, so the serving
// stack's hit rate is observable (docs/TELEMETRY.md).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "isa/compiler.h"

namespace memcim::isa {

/// Cache key.  `shape` packs the workload's geometry (e.g. word bits);
/// `fabric_sig` fingerprints the replay fabric's cost quanta — use
/// fabric_signature() so every call site derives it the same way.
struct ProgramKey {
  std::string workload;
  std::uint64_t shape = 0;
  std::uint64_t fabric_sig = 0;

  [[nodiscard]] bool operator==(const ProgramKey& other) const {
    return workload == other.workload && shape == other.shape &&
           fabric_sig == other.fabric_sig;
  }
};

struct ProgramKeyHash {
  [[nodiscard]] std::size_t operator()(const ProgramKey& key) const;
};

/// FNV-1a fingerprint of the compile options' cost quanta (step costs
/// and the Table 1 time/energy quanta), so programs compiled for
/// IdealFabric and CrsFabric never collide.
[[nodiscard]] std::uint64_t fabric_signature(const CompileOptions& options);

/// Thread-safe keyed cache of compiled programs.  `get_or_compile`
/// holds the cache lock across a miss's record+compile so a key's
/// builder runs exactly once even under concurrent lookups.
class ProgramCache {
 public:
  /// The process-wide cache used by the workload/serving wiring.
  [[nodiscard]] static ProgramCache& global();

  using Builder = std::function<CimProgram()>;

  /// Return the cached artifact for `key`, or record (via `builder`),
  /// compile with `options` and cache it.
  [[nodiscard]] std::shared_ptr<const CompiledProgram> get_or_compile(
      const ProgramKey& key, const Builder& builder,
      const CompileOptions& options = {});

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  void clear();

 private:
  mutable std::mutex mutex_;
  std::unordered_map<ProgramKey, std::shared_ptr<const CompiledProgram>,
                     ProgramKeyHash>
      entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace memcim::isa
