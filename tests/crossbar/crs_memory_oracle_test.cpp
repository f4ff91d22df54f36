// Differential test: the bit-sliced CrsMemory against a row-major grid of
// CrsCells — the device model the bank's closed-form books are derived
// from — driven through one seeded stream of bit and word reads and
// writes, bursts of 1-5 whole-bank reads, and stuck-at injections.
// After every operation the returned bits, every cell's value and
// transition count, the bank totals and the crs_cell.* telemetry each
// side booked must agree exactly.  Row widths of 64, 65 and 130 put
// cells on both sides of u64 word boundaries.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crossbar/crs_memory.h"
#include "device/presets.h"
#include "telemetry/telemetry.h"

namespace memcim {
namespace {

/// The per-cell walk CrsMemory replaces: one CrsCell per stored bit,
/// each read a full read_with_writeback.
class CellGrid {
 public:
  CellGrid(std::size_t rows, std::size_t cols, const CrsCellParams& params)
      : cols_(cols), cells_(rows * cols, CrsCell(params)) {}

  void write(std::size_t r, std::size_t c, bool bit) {
    at(r, c).write(bit);
    ++writes_;
  }
  bool read(std::size_t r, std::size_t c) {
    const CrsReadResult result = at(r, c).read_with_writeback();
    ++reads_;
    if (result.destructive) ++destructive_reads_;
    return result.bit;
  }
  void write_word(std::size_t r, const std::vector<bool>& bits) {
    for (std::size_t c = 0; c < cols_; ++c) write(r, c, bits[c]);
  }
  std::vector<bool> read_word(std::size_t r) {
    std::vector<bool> bits(cols_);
    for (std::size_t c = 0; c < cols_; ++c) bits[c] = read(r, c);
    return bits;
  }
  void inject_stuck(std::size_t r, std::size_t c, bool stuck_one) {
    at(r, c).force_stuck(stuck_one ? CrsState::kOne : CrsState::kZero);
  }

  CrsCell& at(std::size_t r, std::size_t c) { return cells_[r * cols_ + c]; }
  std::uint64_t total_pulses() const {
    std::uint64_t total = 0;
    for (const CrsCell& cell : cells_) total += cell.pulses();
    return total;
  }
  Energy total_energy() const {
    Energy total{0.0};
    for (const CrsCell& cell : cells_) total += cell.energy();
    return total;
  }
  Time total_time() const {
    return cells_.front().params().t_pulse *
           static_cast<double>(total_pulses());
  }

  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t destructive_reads_ = 0;

 private:
  std::size_t cols_;
  std::vector<CrsCell> cells_;
};

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

/// Counters are only booked while telemetry is on; keep it on for the
/// test and restore whatever the process started with.
struct TelemetryOn {
  bool was = telemetry::enabled();
  TelemetryOn() { telemetry::set_enabled(true); }
  ~TelemetryOn() { telemetry::set_enabled(was); }
};

struct Shape {
  std::size_t rows;
  std::size_t cols;
};

void PrintTo(const Shape& shape, std::ostream* os) {
  *os << shape.rows << "x" << shape.cols;
}

class CrsMemoryOracle : public ::testing::TestWithParam<Shape> {};

TEST_P(CrsMemoryOracle, MatchesACrsCellGridAfterEveryOperation) {
  const TelemetryOn telemetry_on;
  const Shape shape = GetParam();
  const CrsCellParams params = presets::crs_cell();
  constexpr std::uint64_t kSeeds = 200;
  constexpr int kOpsPerSeed = 40;

  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    CrsMemory bank(shape.rows, shape.cols, params);
    CellGrid grid(shape.rows, shape.cols, params);
    Rng rng(seed);
    auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    auto random_word = [&] {
      std::vector<bool> bits(shape.cols);
      for (std::size_t c = 0; c < shape.cols; ++c)
        bits[c] = rng.bernoulli(0.5);
      return bits;
    };

    for (int op = 0; op < kOpsPerSeed; ++op) {
      const std::size_t r = pick(shape.rows);
      const std::size_t c = pick(shape.cols);
      const std::size_t kind = pick(22);
      std::string what;
      const CellCounters before = read_counters();
      CellCounters mid;
      if (kind < 5) {
        const bool bit = rng.bernoulli(0.5);
        what = "write";
        bank.write(r, c, bit);
        mid = read_counters();
        grid.write(r, c, bit);
      } else if (kind < 10) {
        what = "read";
        const bool got = bank.read(r, c);
        mid = read_counters();
        EXPECT_EQ(got, grid.read(r, c));
      } else if (kind < 14) {
        what = "write_word";
        const std::vector<bool> bits = random_word();
        bank.write_word(r, bits);
        mid = read_counters();
        grid.write_word(r, bits);
      } else if (kind < 18) {
        what = "read_word";
        const std::vector<bool> got = bank.read_word(r);
        mid = read_counters();
        EXPECT_EQ(got, grid.read_word(r));
      } else if (kind < 20) {
        const bool stuck_one = kind == 18;
        what = stuck_one ? "inject_stuck(1)" : "inject_stuck(0)";
        bank.inject_stuck(r, c, stuck_one);
        mid = read_counters();
        grid.inject_stuck(r, c, stuck_one);
      } else {
        // A burst of whole-bank reads: the bank folds them into its cells
        // lazily, n reads at a time, when a write or an injection next
        // changes a row.
        const auto burst = static_cast<int>(rng.uniform_int(1, 5));
        what = "read_all x" + std::to_string(burst);
        std::span<const std::uint64_t> plane;
        for (int i = 0; i < burst; ++i) plane = bank.read_all();
        mid = read_counters();
        const std::size_t words = bank.words_per_row();
        ASSERT_EQ(plane.size(), shape.rows * words);
        // The grid reads every cell in row-major order, as the bank does.
        for (int i = 0; i < burst; ++i) {
          for (std::size_t rr = 0; rr < shape.rows; ++rr) {
            for (std::size_t k = 0; k < words; ++k) {
              std::uint64_t want = 0;
              for (std::size_t b = 0; b < 64 && 64 * k + b < shape.cols; ++b)
                if (grid.read(rr, 64 * k + b)) want |= std::uint64_t{1} << b;
              EXPECT_EQ(plane[rr * words + k], want)
                  << "read " << i << ", row " << rr << ", word " << k;
            }
          }
        }
      }
      // Each side's own crs_cell.* bookings: the oracle's cells book the
      // same counters, so the two deltas are taken apart.
      const CellCounters bank_events = delta(before, mid);
      const CellCounters grid_events = delta(mid, read_counters());
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << ", op " << op << ": " << what
                   << " at (" << r << ", " << c << ")");

      EXPECT_EQ(bank_events.pulses, grid_events.pulses);
      EXPECT_EQ(bank_events.transitions, grid_events.transitions);
      EXPECT_EQ(bank_events.energy_aj, grid_events.energy_aj);
      EXPECT_EQ(bank_events.absorbed, grid_events.absorbed);
      for (std::size_t rr = 0; rr < shape.rows; ++rr) {
        for (std::size_t cc = 0; cc < shape.cols; ++cc) {
          const CrsCell& cell = grid.at(rr, cc);
          EXPECT_EQ(bank.stored(rr, cc) ? CrsState::kOne : CrsState::kZero,
                    cell.state())
              << "cell (" << rr << ", " << cc << ")";
          EXPECT_EQ(bank.transitions(rr, cc), cell.transitions())
              << "cell (" << rr << ", " << cc << ")";
        }
      }
      EXPECT_EQ(bank.reads(), grid.reads_);
      EXPECT_EQ(bank.writes(), grid.writes_);
      EXPECT_EQ(bank.destructive_reads(), grid.destructive_reads_);
      EXPECT_EQ(bank.total_pulses(), grid.total_pulses());
      EXPECT_EQ(bank.total_time().value(), grid.total_time().value());
      EXPECT_EQ(bank.total_energy().value(), grid.total_energy().value());
      if (HasFailure()) return;  // the first divergence says it all
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CrsMemoryOracle,
    ::testing::Values(Shape{1, 1}, Shape{3, 64}, Shape{5, 65}, Shape{4, 130}),
    ::testing::PrintToStringParamName());

}  // namespace
}  // namespace memcim
