// Set-associative cache model with LRU replacement — the shared 8 kB
// L1 of the paper's conventional clusters (Table 1), made executable.
#pragma once

#include <cstdint>
#include <vector>

#include "conv/memory_trace.h"

namespace memcim {

struct CacheConfig {
  std::size_t size_bytes = 8 * 1024;  ///< Table 1: 8 kB shared L1
  std::size_t line_bytes = 64;
  std::size_t ways = 4;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

  [[nodiscard]] std::uint64_t accesses() const { return hits + misses; }
  [[nodiscard]] double hit_rate() const {
    return accesses() == 0 ? 0.0
                           : static_cast<double>(hits) /
                                 static_cast<double>(accesses());
  }
};

class SetAssociativeCache {
 public:
  explicit SetAssociativeCache(const CacheConfig& config);

  [[nodiscard]] const CacheConfig& config() const { return config_; }
  [[nodiscard]] std::size_t sets() const { return sets_; }

  /// One access; returns true on hit.  Write misses allocate
  /// (write-allocate policy); replacement is true LRU per set.
  bool access(std::uint64_t address, bool is_write = false);

  /// Replay a whole trace.
  void run(const MemoryTrace& trace);

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// True if the line containing `address` is resident.
  [[nodiscard]] bool contains(std::uint64_t address) const;

 private:
  struct Line {
    std::uint64_t tag = 0;
    bool valid = false;
    std::uint64_t lru_stamp = 0;  ///< larger = more recently used
  };

  [[nodiscard]] std::size_t set_of(std::uint64_t address) const;
  [[nodiscard]] std::uint64_t tag_of(std::uint64_t address) const;

  CacheConfig config_;
  std::size_t sets_;
  std::vector<Line> lines_;  // sets_ × ways, row-major
  std::uint64_t clock_ = 0;
  CacheStats stats_;
};

}  // namespace memcim
