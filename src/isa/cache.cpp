#include "isa/cache.h"

#include <bit>

#include "telemetry/telemetry.h"

namespace memcim::isa {

namespace {

constexpr std::uint64_t kFnvOffset = 0xCBF2'9CE4'8422'2325ull;
constexpr std::uint64_t kFnvPrime = 0x0000'0100'0000'01B3ull;

std::uint64_t fnv_mix(std::uint64_t hash, std::uint64_t value) {
  for (std::size_t i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xFFu;
    hash *= kFnvPrime;
  }
  return hash;
}

struct CacheMetrics {
  telemetry::Counter& hits;
  telemetry::Counter& misses;
  CacheMetrics()
      : hits(telemetry::Registry::global().counter("compiler.cache.hits")),
        misses(
            telemetry::Registry::global().counter("compiler.cache.misses")) {}
};

CacheMetrics& cache_metrics() {
  static CacheMetrics m;
  return m;
}

}  // namespace

std::size_t ProgramKeyHash::operator()(const ProgramKey& key) const {
  std::uint64_t hash = kFnvOffset;
  for (const char c : key.workload)
    hash = fnv_mix(hash, static_cast<std::uint64_t>(
                             static_cast<unsigned char>(c)));
  hash = fnv_mix(hash, key.shape);
  hash = fnv_mix(hash, key.fabric_sig);
  return static_cast<std::size_t>(hash);
}

std::uint64_t fabric_signature(const CompileOptions& options) {
  std::uint64_t hash = kFnvOffset;
  hash = fnv_mix(hash,
                 std::bit_cast<std::uint64_t>(options.cost.t_step.value()));
  hash = fnv_mix(hash,
                 std::bit_cast<std::uint64_t>(options.cost.e_write.value()));
  return hash;
}

ProgramCache& ProgramCache::global() {
  static ProgramCache cache;
  return cache;
}

std::shared_ptr<const CompiledProgram> ProgramCache::get_or_compile(
    const ProgramKey& key, const Builder& builder,
    const CompileOptions& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++hits_;
    if (telemetry::enabled()) cache_metrics().hits.add(1);
    return it->second;
  }
  ++misses_;
  if (telemetry::enabled()) cache_metrics().misses.add(1);
  auto compiled = std::make_shared<const CompiledProgram>(
      compile(builder(), options));
  entries_.emplace(key, compiled);
  return compiled;
}

std::size_t ProgramCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void ProgramCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  hits_ = 0;
  misses_ = 0;
}

}  // namespace memcim::isa
