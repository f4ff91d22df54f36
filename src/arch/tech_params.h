// Technology parameter registry — a faithful transcription of the
// paper's Table 1 ("Assumptions made for conventional and CIM
// architectures"), with each constant's paper citation.
//
// Known arithmetic inconsistencies in the paper's own numbers are
// resolved in favour of the formulas (see DESIGN.md §5):
//   * TC-adder latency 133 · 200 ps = 26 600 ps (the "16600 ps" in the
//     text is a typo),
//   * TC-adder dynamic energy 8 · 32 · 1 fJ = 256 fJ (the "246 fJ" is a
//     typo; 1/3.9063e12 ops/J in Table 2 confirms 256 fJ was used).
#pragma once

#include <cstddef>

#include "common/units.h"

namespace memcim {

/// 22 nm FinFET multi-core technology (Table 1, left column).
struct FinfetTech {
  Time gate_delay{14e-12};        ///< [53, 54]
  Area gate_area{0.248e-12};      ///< 0.248 µm² [30]
  Power gate_power{175e-9};       ///< dynamic, per gate [54]
  Power gate_leakage{42.83e-9};   ///< [30]
  Frequency clock{1e9};           ///< operating frequency
  [[nodiscard]] Time cycle() const { return 1.0 / clock; }
};

/// Shared 8 kB L1 cache per cluster (Table 1).
struct CacheSpec {
  std::size_t size_bytes = 8 * 1024;
  Area area{0.0092e-6};           ///< 0.0092 mm² [57]
  double hit_ratio = 0.5;         ///< 50 % healthcare / 98 % math
  double hit_cycles = 1.0;
  double miss_penalty_cycles = 165.0;  ///< [55]
  double write_cycles = 1.0;
  Power static_power{1.0 / 64.0};  ///< 1/64 W [56]

  /// Expected cycles of one read access.
  [[nodiscard]] double read_cycles() const {
    return hit_ratio * hit_cycles + (1.0 - hit_ratio) * miss_penalty_cycles;
  }
};

/// 5 nm memristor crossbar technology (Table 1, right column).
struct MemristorTech {
  Time write_time{200e-12};   ///< [60]
  Area device_area{1e-16};    ///< 1e-4 µm² [30]
  Energy write_energy{1e-15};  ///< 1 fJ [30]
};

/// Conventional carry-look-ahead adder (Table 1, math example).
struct ClaAdderSpec {
  std::size_t gates = 208;        ///< [52]
  std::size_t gate_delays = 18;
  [[nodiscard]] Time latency(const FinfetTech& tech) const {
    return tech.gate_delay * static_cast<double>(gate_delays);  // 252 ps
  }
};

/// Conventional comparator (healthcare example); the paper gives no
/// explicit CMOS comparator numbers, so we budget the CMOS equivalent
/// of 2 XOR + NAND: 2·6 + 4 = 16 gates, 3 logic levels.
struct CmosComparatorSpec {
  std::size_t gates = 16;
  std::size_t gate_delays = 3;
  [[nodiscard]] Time latency(const FinfetTech& tech) const {
    return tech.gate_delay * static_cast<double>(gate_delays);
  }
};

/// CIM memristive comparator (Table 1: 2 XOR + NAND in IMPLY [58]).
struct CimComparatorSpec {
  std::size_t memristors = 13;    ///< XOR: 5 each, NAND: 3
  Area area{1.3e-15};             ///< 1.3e-3 µm² [58]
  std::size_t steps = 16;         ///< 2 XOR in parallel (13) + NAND (3)
  Energy dynamic_energy{45e-15};  ///< 45 fJ [58]
  Energy static_energy{0.0};      ///< non-volatile: zero leakage [30]
  [[nodiscard]] Time latency(const MemristorTech& tech) const {
    return tech.write_time * static_cast<double>(steps);  // 3.2 ns
  }
};

/// CIM TC-adder (Table 1: CRS crossbar adder [59], N = 32).
struct CimAdderSpec {
  std::size_t bits = 32;
  std::size_t memristors = 34;      ///< N + 2
  Area area{3.4e-15};               ///< 3.4e-3 µm²
  std::size_t steps = 133;          ///< 4N + 5
  Energy dynamic_energy{256e-15};   ///< 8 ops/bit · 32 bit · 1 fJ
  Energy static_energy{0.0};
  [[nodiscard]] Time latency(const MemristorTech& tech) const {
    return tech.write_time * static_cast<double>(steps);  // 26.6 ns
  }
};

/// Cluster organisation of the conventional machine.
struct ClusterSpec {
  std::size_t units_per_cluster = 32;  ///< comparators or adders
  std::size_t clusters = 18750;        ///< healthcare sizing (chip-limited)
};

/// The complete Table 1 assumption set.
struct Table1 {
  FinfetTech finfet;
  MemristorTech memristor;
  CacheSpec cache_dna;    ///< 50 % hit ratio
  CacheSpec cache_math;   ///< 98 % hit ratio
  ClaAdderSpec cla;
  CmosComparatorSpec cmos_comparator;
  CimComparatorSpec cim_comparator;
  CimAdderSpec cim_adder;
  ClusterSpec clusters_dna;
  ClusterSpec clusters_math;
};

/// Factory with every Table 1 value filled in.
[[nodiscard]] Table1 paper_table1();

}  // namespace memcim
