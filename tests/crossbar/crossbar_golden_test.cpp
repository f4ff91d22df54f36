// Golden hashes for the crossbar nodal solve.  Every solution double and
// the solver counters of a table of small cases are hashed and held to
// constants recorded at the commit before both network models shared one
// fixed-point loop, so any change to a model's stamps, start voltages,
// pinned nodes, backend choice, damping or readout shows here.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "crossbar/crossbar.h"
#include "crossbar/selector.h"
#include "device/presets.h"
#include "device/vcm.h"
#include "telemetry/telemetry.h"

namespace memcim {
namespace {

/// FNV-1a over the eight bytes of `value`, low byte first.
std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xFFu;
    hash *= 0x0000'0100'0000'01B3u;
  }
  return hash;
}

std::uint64_t hash_doubles(std::uint64_t hash, const std::vector<double>& v) {
  hash = fnv1a(hash, v.size());
  for (double x : v) hash = fnv1a(hash, std::bit_cast<std::uint64_t>(x));
  return hash;
}

std::uint64_t hash_solution(std::uint64_t hash, const CrossbarSolution& s) {
  hash = hash_doubles(hash, s.row_voltage);
  hash = hash_doubles(hash, s.col_voltage);
  hash = hash_doubles(hash, s.device_voltage);
  hash = hash_doubles(hash, s.device_current);
  hash = hash_doubles(hash, s.row_terminal_current);
  hash = hash_doubles(hash, s.col_terminal_current);
  hash = fnv1a(hash, s.nonlinear_iterations);
  return fnv1a(hash, s.converged ? 1 : 0);
}

enum class Junction { k1R, kNonlinearVcm, kSinh1S1R, kDiode1D1R };

std::unique_ptr<Device> make_junction(Junction j) {
  VcmParams p = presets::vcm_taox();
  switch (j) {
    case Junction::k1R:
      return std::make_unique<VcmDevice>(p, 1.0);
    case Junction::kNonlinearVcm:
      p.nonlinearity = 3.0;
      return std::make_unique<VcmDevice>(p, 1.0);
    case Junction::kSinh1S1R:
      return std::make_unique<SelectorDevice>(
          std::make_unique<VcmDevice>(p, 1.0), nonlinear_selector());
    case Junction::kDiode1D1R:
      return std::make_unique<SelectorDevice>(
          std::make_unique<VcmDevice>(p, 1.0), diode_selector());
  }
  return nullptr;
}

/// The solver's counters; the test turns telemetry on so they count at
/// MEMCIM_TELEMETRY=0 too.
constexpr const char* kCounters[] = {
    "crossbar.solve.count",    "crossbar.solve.sweeps",
    "crossbar.assemble.count", "crossbar.warm_start.hits",
    "crossbar.backend.dense",  "crossbar.backend.cg",
    "crossbar.pulse.count",    "solver.cg.calls",
    "solver.cg.iterations",
};

std::vector<std::uint64_t> read_counters() {
  std::vector<std::uint64_t> values;
  for (const char* name : kCounters)
    values.push_back(telemetry::Registry::global().counter(name).value());
  return values;
}

struct TelemetryOn {
  const bool was = telemetry::enabled();
  TelemetryOn() { telemetry::set_enabled(true); }
  ~TelemetryOn() { telemetry::set_enabled(was); }
};

/// Every solve of one (model, junction, driver) row: three backends,
/// structure reuse and warm start each on and off, a few shapes, and per
/// array the four bias schemes, one pulse and a read after it.  With
/// ideal drivers a 1×1 array, and a lumped array under every scheme but
/// the floating one, has every line pinned and no unknown.
std::uint64_t hash_row(NetworkModel model, Junction junction, double driver) {
  struct Shape {
    std::size_t rows, cols;
  };
  std::vector<Shape> shapes = model == NetworkModel::kLumpedLines
                                  ? std::vector<Shape>{{1, 1}, {3, 4}, {7, 4}}
                                  : std::vector<Shape>{{1, 1}, {2, 3}, {4, 3}};
  // The selector stacks solve their internal node by bisection on every
  // current, so they take the two smaller shapes only.
  if (junction == Junction::kSinh1S1R || junction == Junction::kDiode1D1R)
    shapes.pop_back();
  const std::unique_ptr<Device> proto = make_junction(junction);
  const VcmParams p = presets::vcm_taox();
  std::uint64_t hash = 0xCBF2'9CE4'8422'2325u;
  // The default crossover (dense LU at these sizes), one inside the
  // shapes (a 7×4 floating read has exactly 9 unknowns), and CG only.
  for (std::size_t dense_max : {CrossbarConfig{}.dense_solver_max_unknowns,
                                std::size_t{9}, std::size_t{0}})
    for (int flags = 0; flags < 4; ++flags)
      for (const Shape& shape : shapes) {
        CrossbarConfig cfg;
        cfg.rows = shape.rows;
        cfg.cols = shape.cols;
        cfg.model = model;
        cfg.wire_segment = Resistance(25.0);
        cfg.driver = Resistance(driver);
        cfg.dense_solver_max_unknowns = dense_max;
        cfg.reuse_structure = (flags & 1) != 0;
        cfg.warm_start = (flags & 2) != 0;
        CrossbarArray xbar(cfg, *proto);
        for (std::size_t r = 0; r < shape.rows; ++r)
          for (std::size_t c = 0; c < shape.cols; ++c)
            xbar.store_bit(r, c, (r * 7 + c * 3) % 5 < 3);
        const std::size_t sel_r = shape.rows - 1, sel_c = shape.cols / 2;
        for (BiasScheme scheme :
             {BiasScheme::kFloating, BiasScheme::kGrounded,
              BiasScheme::kVHalf, BiasScheme::kVThird})
          hash = hash_solution(
              hash, xbar.solve(access_bias(shape.rows, shape.cols, sel_r,
                                           sel_c, Voltage(1.0), scheme)));
        hash = hash_solution(
            hash, xbar.apply_pulse(access_bias(shape.rows, shape.cols, 0, 0,
                                               -p.v_write, BiasScheme::kVHalf),
                                   p.t_switch));
        hash = hash_solution(
            hash, xbar.solve(access_bias(shape.rows, shape.cols, 0, 0,
                                         Voltage(0.5), BiasScheme::kFloating)));
      }
  return hash;
}

TEST(CrossbarGolden, SolutionsMatchTheParentBitForBit) {
  struct Want {
    NetworkModel model;
    Junction junction;
    double driver;  ///< ohms; 0 = ideal
    std::uint64_t solutions;
    std::uint64_t counters;
  };
  using enum NetworkModel;
  using enum Junction;
  constexpr Want kWant[] = {
      {kLumpedLines, k1R, 0.0,
       0xC5E7'D219'0BB0'9919u, 0xDEE9'15BC'DCDD'ED2Au},
      {kLumpedLines, k1R, 1e4,
       0xCF74'8E39'D663'0931u, 0x7FB3'E46B'5D17'2F4Au},
      {kLumpedLines, kNonlinearVcm, 0.0,
       0xB648'6D2B'020F'07D1u, 0x79FF'DD03'20C6'EF10u},
      {kLumpedLines, kNonlinearVcm, 1e4,
       0x774F'702A'5DCF'C8D9u, 0xA334'0D72'FFEE'EEB4u},
      {kLumpedLines, kSinh1S1R, 0.0,
       0x9A06'F2B4'FA02'55ADu, 0xE227'FE68'0839'4C94u},
      {kLumpedLines, kSinh1S1R, 1e4,
       0xFA00'1862'DF43'41C5u, 0x6A83'4566'F11B'0CB2u},
      {kLumpedLines, kDiode1D1R, 0.0,
       0x092F'8BD7'5A8A'C345u, 0x2F8D'B4A8'C918'B25Du},
      {kLumpedLines, kDiode1D1R, 1e4,
       0x22BF'48AC'9379'6CFDu, 0x9CFB'4EB2'C665'FF98u},
      {kDistributed, k1R, 0.0,
       0xF89F'8A95'2645'BFF1u, 0x0095'FCF8'CA29'0EFCu},
      {kDistributed, k1R, 1e4,
       0x4996'34E0'1353'7C4Du, 0x68FA'20AF'F299'1814u},
      {kDistributed, kNonlinearVcm, 0.0,
       0x0A25'F72C'E308'51FDu, 0x78F7'39B3'6573'2B5Fu},
      {kDistributed, kNonlinearVcm, 1e4,
       0x41F5'5E1A'EA6C'6911u, 0xF740'1318'F5C8'A36Au},
      {kDistributed, kSinh1S1R, 0.0,
       0xD510'2A0E'FB62'B191u, 0xCE1F'BA9C'6F78'7915u},
      {kDistributed, kSinh1S1R, 1e4,
       0xEDDF'211A'2DDA'618Du, 0x3473'4B07'61EA'FB70u},
      {kDistributed, kDiode1D1R, 0.0,
       0x4B8C'2115'C628'9F09u, 0x3E99'8F96'0754'2048u},
      {kDistributed, kDiode1D1R, 1e4,
       0x6AB7'055D'59B9'9A6Du, 0xF680'0188'A370'5DB3u},
  };
  const TelemetryOn telemetry_on;
  for (std::size_t k = 0; k < std::size(kWant); ++k) {
    const Want& want = kWant[k];
    const std::vector<std::uint64_t> before = read_counters();
    const std::uint64_t solutions =
        hash_row(want.model, want.junction, want.driver);
    const std::vector<std::uint64_t> after = read_counters();
    std::uint64_t counters = 0xCBF2'9CE4'8422'2325u;
    for (std::size_t i = 0; i < after.size(); ++i)
      counters = fnv1a(counters, after[i] - before[i]);
    EXPECT_EQ(solutions, want.solutions)
        << "row " << k << std::hex << " got 0x" << solutions;
    EXPECT_EQ(counters, want.counters)
        << "row " << k << std::hex << " got 0x" << counters;
  }
}

}  // namespace
}  // namespace memcim
