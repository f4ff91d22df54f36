// Differential tests: PackedTcAdderFarm, the production TC-adder model,
// against CrsTcAdderFarm (tests/support/), a farm of CrsTcAdders that
// walk the 4N+5 pulse schedule one CrsCell pulse at a time.  After
// every injection and every run the sums, carry-outs, per-op energy
// bits, stored sums, transitions and each crs_cell.* delta must agree
// exactly.  The seed picks one of three threshold sets, so the
// stuck-at-1 absorption terms run with both negative pulse levels of
// the schedule (−V_amp, −3·V_amp) reaching v_th3, only the stronger
// one, and neither.
//
// Shapes/AdderOracle runs three short rounds per seed (one or two adds
// per slot) with stuck cells gained or re-pinned before each: round 0
// pins a fresh farm, rounds 1 and 2 pin after adds have run.
// Shapes/AdderOracleRows runs long rounds (40–47 adds per slot and a
// partial last row), the first with no stuck cell at all, so whole
// rows fold on the fault-free path and the cells' transition counts
// run far past what a fresh farm's energy table holds.
#include "logic/packed_adder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <ostream>
#include <vector>

#include "common/rng.h"
#include "device/presets.h"
#include "support/adder_farm_walk.h"
#include "telemetry/telemetry.h"

namespace memcim {
namespace {

struct CellCounters {
  std::uint64_t pulses = 0;
  std::uint64_t transitions = 0;
  std::uint64_t energy_aj = 0;
  std::uint64_t absorbed = 0;
};

CellCounters read_counters() {
  telemetry::Registry& reg = telemetry::Registry::global();
  return {reg.counter("crs_cell.pulses").value(),
          reg.counter("crs_cell.transitions").value(),
          reg.counter("crs_cell.switch_energy_aj").value(),
          reg.counter("crs_cell.stuck_absorbed").value()};
}

CellCounters delta(const CellCounters& from, const CellCounters& to) {
  return {to.pulses - from.pulses, to.transitions - from.transitions,
          to.energy_aj - from.energy_aj, to.absorbed - from.absorbed};
}

void expect_equal(const CellCounters& farm, const CellCounters& oracle) {
  EXPECT_EQ(farm.pulses, oracle.pulses);
  EXPECT_EQ(farm.transitions, oracle.transitions);
  EXPECT_EQ(farm.energy_aj, oracle.energy_aj);
  EXPECT_EQ(farm.absorbed, oracle.absorbed);
}

/// Counters are only booked while telemetry is on; keep it on for the
/// test and restore whatever the process started with.
struct TelemetryOn {
  bool was = telemetry::enabled();
  TelemetryOn() { telemetry::set_enabled(true); }
  ~TelemetryOn() { telemetry::set_enabled(was); }
};

/// The preset (v_th2 = 2 V, so the schedule's negative levels are
/// −2.2 V and −6.6 V, both below its v_th3 = −1 V) and two ladders
/// whose v_th3 only the stronger level reaches, or neither does.
CrsCellParams threshold_set(std::uint64_t seed) {
  CrsCellParams cell = presets::crs_cell();
  if (seed % 3 == 1) {
    cell.v_th3 = Voltage(-3.0);
    cell.v_th4 = Voltage(-4.0);
  } else if (seed % 3 == 2) {
    cell.v_th3 = Voltage(-7.0);
    cell.v_th4 = Voltage(-8.0);
  }
  return cell;
}

/// Both farms after the same run: expect equal sums, per-op energy
/// bits, carry-outs, stored sums, lifetime transitions and crs_cell.*
/// deltas.  `carry` holds each slot's last carry-out and
/// `farm_transitions` the farm's lifetime transitions, across rounds.
/// Returns the pulses the farm booked as absorbed.
std::uint64_t expect_same_run(PackedTcAdderFarm& farm, CrsTcAdderFarm& oracle,
                              const std::vector<std::uint64_t>& a,
                              const std::vector<std::uint64_t>& b,
                              std::vector<bool>& carry,
                              std::uint64_t& farm_transitions) {
  const std::size_t n_ops = a.size();
  const std::size_t slots = farm.slots();
  const std::uint64_t steps = PackedTcAdderFarm::steps(farm.width());
  const CellCounters before = read_counters();
  const PackedAddOutcome got = farm.run(a, b);
  const CellCounters mid = read_counters();
  const std::vector<TcAdderResult> want = oracle.run(a, b);
  const CellCounters farm_events = delta(before, mid);
  const CellCounters oracle_events = delta(mid, read_counters());

  EXPECT_EQ(got.sums.size(), n_ops);
  EXPECT_EQ(got.energies.size(), n_ops);
  if (got.sums.size() != n_ops || got.energies.size() != n_ops) return 0;
  for (std::size_t op = 0; op < n_ops; ++op) {
    EXPECT_EQ(got.sums[op], want[op].sum) << "op " << op;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.energies[op]),
              std::bit_cast<std::uint64_t>(want[op].energy.value()))
        << "op " << op;
    EXPECT_EQ(want[op].pulses, steps);
    EXPECT_EQ(want[op].latency.value(), farm.add_latency().value());
    carry[op % slots] = want[op].carry_out;
  }
  for (std::size_t s = 0; s < slots; ++s) {
    EXPECT_EQ(farm.carry_out(s), carry[s]) << "slot " << s;
    EXPECT_EQ(farm.stored_sum(s), oracle.adder(s).stored_sum())
        << "slot " << s;
  }
  farm_transitions += got.transitions;
  EXPECT_EQ(farm_transitions, oracle.transitions());
  expect_equal(farm_events, oracle_events);
  EXPECT_EQ(farm_events.pulses, n_ops * steps);
  return farm_events.absorbed;
}

struct Shape {
  std::size_t slots;
  std::size_t width;
};

void PrintTo(const Shape& shape, std::ostream* os) {
  *os << shape.slots << "x" << shape.width;
}

class AdderOracle : public ::testing::TestWithParam<Shape> {};

TEST_P(AdderOracle, MatchesAPulseWalkedFarmAfterEveryRun) {
  const TelemetryOn telemetry_on;
  const Shape shape = GetParam();
  const std::uint64_t mask = shape.width == 64
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << shape.width) - 1;
  const std::size_t cells = PackedTcAdderFarm::devices(shape.width);
  constexpr std::uint64_t kSeeds = 200;
  constexpr int kRounds = 3;
  std::uint64_t absorbed_total = 0;

  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const CrsCellParams cell = threshold_set(seed);
    PackedTcAdderFarm farm(shape.slots, shape.width, cell);
    CrsTcAdderFarm oracle(shape.slots, shape.width, cell);
    Rng rng(seed);
    auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    // Mostly random bits, sometimes 0 or all ones (the carry extremes).
    auto operand = [&] {
      const std::size_t roll = pick(8);
      if (roll == 0) return std::uint64_t{0};
      if (roll == 1) return mask;
      return rng.engine()() & mask;
    };
    std::vector<std::vector<std::size_t>> stuck(shape.slots);
    std::vector<bool> carry(shape.slots, false);
    std::uint64_t farm_transitions = 0;

    for (int round = 0; round < kRounds; ++round) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << ", round " << round);
      const CellCounters before_pins = read_counters();
      for (std::size_t s = 0; s < shape.slots; ++s) {
        if (!rng.bernoulli(0.3)) continue;
        std::vector<std::size_t>& pinned = stuck[s];
        std::size_t c = 0;
        if (!pinned.empty() && (pinned.size() == 3 || rng.bernoulli(0.3))) {
          c = pinned[pick(pinned.size())];  // re-pin
        } else {
          // The carry and scratch cells are 2 of N + 2 sites; favour
          // them so every width sees them stuck.
          do {
            const std::size_t roll = pick(6);
            c = roll < 2 ? shape.width
                         : (roll == 2 ? shape.width + 1 : pick(shape.width));
          } while (std::find(pinned.begin(), pinned.end(), c) !=
                   pinned.end());
          pinned.push_back(c);
        }
        const bool stuck_one = rng.bernoulli(0.5);
        farm.inject_stuck(s * cells + c, stuck_one);
        oracle.inject_stuck(s * cells + c, stuck_one);
      }
      // Injection issues no pulse and books nothing.
      const CellCounters pins = delta(before_pins, read_counters());
      EXPECT_EQ(pins.pulses + pins.transitions + pins.energy_aj + pins.absorbed,
                0u);
      for (std::size_t s = 0; s < shape.slots; ++s)
        EXPECT_EQ(farm.stored_sum(s), oracle.adder(s).stored_sum())
            << "slot " << s << " after pinning";

      // One or two adds per slot.
      const std::size_t n_ops = shape.slots + pick(shape.slots + 1);
      std::vector<std::uint64_t> a(n_ops), b(n_ops);
      for (std::size_t op = 0; op < n_ops; ++op) {
        a[op] = operand();
        b[op] = operand();
      }
      absorbed_total +=
          expect_same_run(farm, oracle, a, b, carry, farm_transitions);
      if (HasFailure()) return;  // the first divergence says it all
    }
  }
  // The streams really drive pulses into stuck cells.
  EXPECT_GT(absorbed_total, 0u);
}

std::vector<Shape> shapes() {
  std::vector<Shape> out;
  for (const std::size_t slots : {1u, 16u, 64u, 65u, 130u})
    for (const std::size_t width : {1u, 32u, 63u, 64u})
      out.push_back({slots, width});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Shapes, AdderOracle, ::testing::ValuesIn(shapes()),
                         ::testing::PrintToStringParamName());

struct RowShape {
  std::size_t slots;
  std::size_t width;
  std::uint64_t seeds;  ///< the pulse walk's cost sets how many
};

void PrintTo(const RowShape& shape, std::ostream* os) {
  *os << shape.slots << "x" << shape.width;
}

class AdderOracleRows : public ::testing::TestWithParam<RowShape> {};

TEST_P(AdderOracleRows, LongRoundsMatchAPulseWalkedFarm) {
  const TelemetryOn telemetry_on;
  const RowShape shape = GetParam();
  const std::uint64_t mask = shape.width == 64
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << shape.width) - 1;
  const std::size_t cells = PackedTcAdderFarm::devices(shape.width);
  constexpr int kRounds = 2;

  for (std::uint64_t seed = 1; seed <= shape.seeds; ++seed) {
    const CrsCellParams cell = threshold_set(seed);
    PackedTcAdderFarm farm(shape.slots, shape.width, cell);
    CrsTcAdderFarm oracle(shape.slots, shape.width, cell);
    Rng rng(seed);
    auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    auto operand = [&] {
      const std::size_t roll = pick(8);
      if (roll == 0) return std::uint64_t{0};
      if (roll == 1) return mask;
      return rng.engine()() & mask;
    };
    // The longest carry chains, which raise the carry cell's count the
    // most an add can: all ones + 1 carries into every bit and out, and
    // on the next row all ones but the top + 1 carries into every bit
    // but out, after a stale carry-out (2N + 1 transitions).
    const double chain_share = seed % 2 == 0 ? 0.75 : 0.125;
    std::vector<bool> carry(shape.slots, false);
    std::uint64_t farm_transitions = 0;

    for (int round = 0; round < kRounds; ++round) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << ", round " << round);
      // Round 0 runs with no stuck cell; round 1 pins one cell in about
      // one slot in five, so the fault-free slots pair up around them.
      if (round == 1) {
        for (std::size_t s = 0; s < shape.slots; ++s) {
          if (!rng.bernoulli(0.2)) continue;
          const std::size_t site = s * cells + pick(cells);
          const bool stuck_one = rng.bernoulli(0.5);
          farm.inject_stuck(site, stuck_one);
          oracle.inject_stuck(site, stuck_one);
        }
      }
      // 40–47 adds per slot, then a partial row.
      const std::size_t n_ops =
          shape.slots * (40 + pick(8)) + pick(shape.slots);
      std::vector<std::uint64_t> a(n_ops), b(n_ops);
      for (std::size_t op = 0; op < n_ops; ++op) {
        if (rng.bernoulli(chain_share)) {
          a[op] = (op / shape.slots) % 2 == 0 ? mask : mask >> 1;
          b[op] = 1;
        } else {
          a[op] = operand();
          b[op] = operand();
        }
      }
      expect_same_run(farm, oracle, a, b, carry, farm_transitions);
      if (HasFailure()) return;  // the first divergence says it all
    }
  }
}

/// Odd slot counts leave one slot out of the pairs; 66 and 129 put a
/// pair or a lone slot in a last lane block of their own.
std::vector<RowShape> row_shapes() {
  return {{2, 32, 24}, {2, 63, 18}, {3, 1, 36},  {3, 32, 24},
          {3, 64, 12}, {5, 8, 30},  {5, 32, 18}, {5, 63, 12},
          {66, 32, 6}, {66, 63, 3}, {129, 1, 12}, {129, 32, 3},
          {129, 63, 2}};
}

INSTANTIATE_TEST_SUITE_P(Shapes, AdderOracleRows,
                         ::testing::ValuesIn(row_shapes()),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace memcim
