// Differential test: the bit-sliced CrsCam against CellGridCam
// (tests/support/), the CrsCell-per-bit CAM its closed-form write books
// are derived from, driven through one seeded stream of binary and
// ternary writes, erases, stuck-at injections (re-pins included),
// searches and reads.  After every operation the search and read
// results, the lifetime books and the crs_cell.* telemetry each side
// booked must agree exactly, and at the end of each stream every row's
// stored word.  The shapes put rows on both sides of the 64-row block
// boundary.
#include "logic/cam.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "device/presets.h"
#include "support/cell_grid_cam.h"
#include "telemetry/telemetry.h"

namespace memcim {
namespace {

std::vector<bool> random_key(std::size_t bits, Rng& rng) {
  std::vector<bool> key(bits);
  for (std::size_t i = 0; i < bits; ++i) key[i] = rng.bernoulli(0.5);
  return key;
}

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

/// The stored word, or nothing when the read throws (erased or never
/// written rows).
template <typename Cam>
std::optional<std::vector<CamBit>> try_read(const Cam& cam, std::size_t row) {
  try {
    return cam.read_row(row);
  } catch (const Error&) {
    return std::nullopt;
  }
}

struct Shape {
  std::size_t rows;
  std::size_t word_bits;
};

void PrintTo(const Shape& shape, std::ostream* os) {
  *os << shape.rows << "x" << shape.word_bits;
}

class CamOracle : public ::testing::TestWithParam<Shape> {};

TEST_P(CamOracle, MatchesACellGridCamAfterEveryOperation) {
  const TelemetryOn telemetry_on;
  const Shape shape = GetParam();
  CamConfig config;
  config.rows = shape.rows;
  config.word_bits = shape.word_bits;
  config.cell = presets::crs_cell();
  constexpr std::uint64_t kSeeds = 200;
  constexpr int kOpsPerSeed = 48;

  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    CrsCam cam(config);
    CellGridCam grid(config);
    Rng rng(seed);
    auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    // Half the operations revisit the previous row (and bit), so rows
    // are rewritten over stuck cells, re-pinned, erased and rewritten.
    std::size_t row = 0;
    std::size_t bit = 0;
    std::vector<std::vector<CamBit>> requested(shape.rows);
    auto random_word = [&] {
      std::vector<CamBit> word(shape.word_bits);
      for (CamBit& b : word) {
        const std::size_t roll = pick(8);
        b = roll == 0 ? CamBit::kDontCare
                      : (roll < 4 ? CamBit::kZero : CamBit::kOne);
      }
      return word;
    };
    // Mostly a requested word with a few key bits flipped, so searches
    // hit rows as well as miss them.
    auto search_key = [&] {
      const std::vector<CamBit>& word = requested[pick(shape.rows)];
      if (word.empty()) return random_key(shape.word_bits, rng);
      std::vector<bool> key(shape.word_bits);
      for (std::size_t i = 0; i < shape.word_bits; ++i) {
        key[i] = word[i] == CamBit::kDontCare ? rng.bernoulli(0.5)
                                              : word[i] == CamBit::kOne;
        if (pick(4 * shape.word_bits) == 0) key[i] = !key[i];
      }
      return key;
    };

    for (int op = 0; op < kOpsPerSeed; ++op) {
      if (rng.bernoulli(0.5)) {
        row = pick(shape.rows);
        bit = pick(shape.word_bits);
      } else if (rng.bernoulli(0.5)) {
        bit = pick(shape.word_bits);
      }
      const std::size_t kind = pick(16);
      std::string what;
      const CellCounters before = read_counters();
      CellCounters mid;
      if (kind < 3) {
        what = "write_row";
        std::vector<bool> word(shape.word_bits);
        requested[row].assign(shape.word_bits, CamBit::kZero);
        for (std::size_t i = 0; i < shape.word_bits; ++i) {
          word[i] = rng.bernoulli(0.5);
          if (word[i]) requested[row][i] = CamBit::kOne;
        }
        cam.write_row(row, word);
        mid = read_counters();
        grid.write_row(row, word);
      } else if (kind < 6) {
        what = "write_row_ternary";
        requested[row] = random_word();
        cam.write_row_ternary(row, requested[row]);
        mid = read_counters();
        grid.write_row_ternary(row, requested[row]);
      } else if (kind < 7) {
        what = "erase_row";
        cam.erase_row(row);
        mid = read_counters();
        grid.erase_row(row);
      } else if (kind < 9) {
        const bool stuck_one = rng.bernoulli(0.5);
        what = stuck_one ? "inject_stuck(1)" : "inject_stuck(0)";
        cam.inject_stuck(row, bit, stuck_one);
        mid = read_counters();
        grid.inject_stuck(row, bit, stuck_one);
      } else if (kind < 12) {
        what = "search";
        const std::vector<bool> key = search_key();
        const CamSearchResult got = cam.search(key);
        mid = read_counters();
        const CamSearchResult want = grid.search(key);
        EXPECT_EQ(got.matching_rows, want.matching_rows);
        EXPECT_EQ(got.latency.value(), want.latency.value());
        EXPECT_EQ(got.energy.value(), want.energy.value());
      } else if (kind < 14) {
        what = "search_first";
        const std::vector<bool> key = search_key();
        const std::optional<std::size_t> got = cam.search_first(key);
        mid = read_counters();
        EXPECT_EQ(got, grid.search_first(key));
      } else {
        what = "read_row";
        const std::optional<std::vector<CamBit>> got = try_read(cam, row);
        mid = read_counters();
        EXPECT_EQ(got, try_read(grid, row));
      }
      // Each side's own crs_cell.* bookings: the oracle's cells book the
      // same counters, so the two deltas are taken apart.
      const CellCounters cam_events = delta(before, mid);
      const CellCounters grid_events = delta(mid, read_counters());
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << ", op " << op << ": " << what
                   << " at row " << row << ", bit " << bit);

      EXPECT_EQ(cam_events.pulses, grid_events.pulses);
      EXPECT_EQ(cam_events.transitions, grid_events.transitions);
      EXPECT_EQ(cam_events.energy_aj, grid_events.energy_aj);
      EXPECT_EQ(cam_events.absorbed, grid_events.absorbed);
      EXPECT_EQ(cam.searches(), grid.searches());
      EXPECT_EQ(cam.total_energy().value(), grid.total_energy().value());
      if (HasFailure()) return;  // the first divergence says it all
    }
    // Every row's stored word (or both sides refusing the read) at the
    // end of the stream.
    for (std::size_t r = 0; r < shape.rows; ++r)
      EXPECT_EQ(try_read(cam, r), try_read(grid, r))
          << "seed " << seed << ", row " << r;
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CamOracle,
    ::testing::Values(Shape{1, 1}, Shape{8, 12}, Shape{63, 7}, Shape{64, 64},
                      Shape{65, 33}, Shape{130, 100}),
    ::testing::PrintToStringParamName());

TEST(PackedCam, DontCareColumnsIgnoreKeyBits) {
  CamConfig config;
  config.rows = 65;
  config.word_bits = 8;
  config.cell = presets::crs_cell();
  CrsCam cam(config);
  // Row 64 (first row of the partial block): all don't-care → matches
  // every key.
  cam.write_row_ternary(64, std::vector<CamBit>(8, CamBit::kDontCare));
  Rng rng(0xDC);
  for (int i = 0; i < 16; ++i) {
    const CamSearchResult r = cam.search(random_key(8, rng));
    ASSERT_EQ(r.matching_rows.size(), 1u);
    EXPECT_EQ(r.matching_rows.front(), 64u);
  }
}

}  // namespace
}  // namespace memcim
