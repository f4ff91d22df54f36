// Memory access traces — the input of the conventional-baseline
// simulator.  The paper *assumes* cache hit ratios (50 % for the DNA
// workload, 98 % for math, Table 1); this subsystem lets us *measure*
// them by replaying the actual address stream of the sorted-index
// algorithm through a real cache model (see conv/cache.h).
#pragma once

#include <cstdint>
#include <vector>

namespace memcim {

struct MemoryAccess {
  std::uint64_t address = 0;
  bool is_write = false;
};

/// An append-only access stream.
class MemoryTrace {
 public:
  void record(std::uint64_t address, bool is_write = false) {
    accesses_.push_back({address, is_write});
  }

  [[nodiscard]] const std::vector<MemoryAccess>& accesses() const {
    return accesses_;
  }
  [[nodiscard]] std::size_t size() const { return accesses_.size(); }
  [[nodiscard]] bool empty() const { return accesses_.empty(); }
  void clear() { accesses_.clear(); }

 private:
  std::vector<MemoryAccess> accesses_;
};

}  // namespace memcim
