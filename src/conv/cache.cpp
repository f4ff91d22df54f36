#include "conv/cache.h"

#include "common/error.h"
#include "telemetry/telemetry.h"

namespace memcim {

namespace {
bool is_power_of_two(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }

struct CacheMetrics {
  telemetry::Counter& hits;
  telemetry::Counter& misses;
  telemetry::Counter& evictions;
  CacheMetrics()
      : hits(telemetry::Registry::global().counter("conv.cache.hits")),
        misses(telemetry::Registry::global().counter("conv.cache.misses")),
        evictions(
            telemetry::Registry::global().counter("conv.cache.evictions")) {}
};

CacheMetrics& cache_metrics() {
  static CacheMetrics m;
  return m;
}
}  // namespace

SetAssociativeCache::SetAssociativeCache(const CacheConfig& config)
    : config_(config) {
  MEMCIM_CHECK_MSG(is_power_of_two(config_.line_bytes),
                   "line size must be a power of two");
  MEMCIM_CHECK_MSG(config_.ways >= 1, "need at least one way");
  MEMCIM_CHECK_MSG(config_.size_bytes >= config_.line_bytes * config_.ways,
                   "cache smaller than one set");
  MEMCIM_CHECK_MSG(
      config_.size_bytes % (config_.line_bytes * config_.ways) == 0,
      "size must be a whole number of sets");
  sets_ = config_.size_bytes / (config_.line_bytes * config_.ways);
  MEMCIM_CHECK_MSG(is_power_of_two(sets_), "set count must be a power of two");
  lines_.assign(sets_ * config_.ways, Line{});
}

std::size_t SetAssociativeCache::set_of(std::uint64_t address) const {
  return static_cast<std::size_t>((address / config_.line_bytes) %
                                  sets_);
}

std::uint64_t SetAssociativeCache::tag_of(std::uint64_t address) const {
  return address / config_.line_bytes / sets_;
}

bool SetAssociativeCache::access(std::uint64_t address, bool is_write) {
  (void)is_write;  // write-allocate: identical placement behaviour
  ++clock_;
  const std::size_t set = set_of(address);
  const std::uint64_t tag = tag_of(address);
  Line* base = &lines_[set * config_.ways];

  // Hit?
  for (std::size_t w = 0; w < config_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) {
      base[w].lru_stamp = clock_;
      ++stats_.hits;
      cache_metrics().hits.add(1);
      return true;
    }
  }
  // Miss: fill an invalid way or evict the LRU one.
  ++stats_.misses;
  cache_metrics().misses.add(1);
  Line* victim = &base[0];
  for (std::size_t w = 0; w < config_.ways; ++w) {
    if (!base[w].valid) {
      victim = &base[w];
      break;
    }
    if (base[w].lru_stamp < victim->lru_stamp) victim = &base[w];
  }
  if (victim->valid) {
    ++stats_.evictions;
    cache_metrics().evictions.add(1);
  }
  victim->valid = true;
  victim->tag = tag;
  victim->lru_stamp = clock_;
  return false;
}

void SetAssociativeCache::run(const MemoryTrace& trace) {
  for (const MemoryAccess& a : trace.accesses()) (void)access(a.address, a.is_write);
}

bool SetAssociativeCache::contains(std::uint64_t address) const {
  const std::size_t set = set_of(address);
  const std::uint64_t tag = tag_of(address);
  const Line* base = &lines_[set * config_.ways];
  for (std::size_t w = 0; w < config_.ways; ++w)
    if (base[w].valid && base[w].tag == tag) return true;
  return false;
}

}  // namespace memcim
