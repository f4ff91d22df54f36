// Cached workload kernels: a packed replay of the masked-equality
// kernel matches the CRS device CAM row for row (binary, ternary and
// erased rows), the ripple-adder kernel's wide outputs match native
// addition, and the packed replay books reconcile exactly with a
// scalar run_program_simd of the same program.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "device/presets.h"
#include "isa/kernels.h"
#include "logic/cam.h"
#include "logic/ideal_fabric.h"
#include "logic/packed.h"
#include "support/simd_wide.h"

namespace memcim::isa {
namespace {

std::vector<bool> random_word(std::size_t bits, Rng& rng) {
  std::vector<bool> w(bits);
  for (std::size_t i = 0; i < bits; ++i) w[i] = rng.uniform() < 0.5;
  return w;
}

/// Packed replay of one compiled form across `windows`.
PackedRunResult replay(const CompiledProgram& program, bool optimized,
                       const std::vector<std::vector<bool>>& windows) {
  return run_program_packed(
      optimized ? program.packed_optimized : program.packed_source, windows,
      optimized ? program.run_optimized : program.run_source);
}

TEST(CompiledCamBank, MatchesCrsCamOnBinaryTernaryAndUnwrittenRows) {
  constexpr std::size_t kRows = 16;
  constexpr std::size_t kBits = 8;
  CamConfig device_config;
  device_config.rows = kRows;
  device_config.word_bits = kBits;
  device_config.cell = presets::crs_cell();
  CrsCam device(device_config);
  // The bank the kernel searches: per row a stored value, a care mask
  // (1 = bit participates) and a valid bit.
  std::vector<std::vector<bool>> value(kRows, std::vector<bool>(kBits));
  std::vector<std::vector<bool>> care(kRows, std::vector<bool>(kBits));
  std::vector<bool> valid(kRows, false);

  Rng rng(0xCA3Bull);
  for (std::size_t r = 0; r < kRows; ++r) {
    if (r % 4 == 3) continue;  // leave every 4th row invalid
    if (r % 4 == 2) {
      std::vector<CamBit> word(kBits);
      for (std::size_t i = 0; i < kBits; ++i) {
        const double roll = rng.uniform();
        word[i] = roll < 0.3   ? CamBit::kDontCare
                  : roll < 0.65 ? CamBit::kOne
                                : CamBit::kZero;
        value[r][i] = word[i] == CamBit::kOne;
        care[r][i] = word[i] != CamBit::kDontCare;
      }
      device.write_row_ternary(r, word);
    } else {
      value[r] = random_word(kBits, rng);
      care[r].assign(kBits, true);
      device.write_row(r, value[r]);
    }
    valid[r] = true;
  }
  // An invalid row matches nothing, whatever value its window holds.
  value[7] = random_word(kBits, rng);
  care[7].assign(kBits, true);

  const auto program = cached_masked_equality(kBits);
  for (int q = 0; q < 64; ++q) {
    // Every 4th key is a stored value, so matches actually fire (and
    // invalid row 7's value must still miss).
    const std::vector<bool> key =
        (q % 4 == 0) ? value[static_cast<std::size_t>(q / 4) % kRows]
                     : random_word(kBits, rng);
    std::vector<std::vector<bool>> windows(kRows);
    for (std::size_t r = 0; r < kRows; ++r) {
      std::vector<bool>& in = windows[r];
      in.insert(in.end(), key.begin(), key.end());
      in.insert(in.end(), value[r].begin(), value[r].end());
      in.insert(in.end(), care[r].begin(), care[r].end());
      in.push_back(valid[r]);
    }
    const std::vector<std::size_t> expected = device.search(key).matching_rows;
    for (const bool optimized : {true, false}) {
      const PackedRunResult result = replay(*program, optimized, windows);
      std::vector<std::size_t> matching_rows;
      for (std::size_t r = 0; r < kRows; ++r)
        if (result.outputs[r]) matching_rows.push_back(r);
      EXPECT_EQ(matching_rows, expected)
          << (optimized ? "optimized" : "source") << " query " << q;
      EXPECT_GT(result.steps_per_window, 0u);
    }
  }
}

TEST(CompiledAdd, MatchesNativeAdditionOnBothForms) {
  constexpr std::size_t kWidth = 12;
  constexpr std::size_t kOps = 100;
  Rng rng(0xADD5ull);
  std::vector<std::uint64_t> a(kOps), b(kOps);
  const std::uint64_t mask = (std::uint64_t{1} << kWidth) - 1;
  std::vector<std::vector<bool>> windows(kOps);
  for (std::size_t i = 0; i < kOps; ++i) {
    a[i] = static_cast<std::uint64_t>(
               rng.uniform_int(0, static_cast<std::int64_t>(mask)));
    b[i] = static_cast<std::uint64_t>(
               rng.uniform_int(0, static_cast<std::int64_t>(mask)));
    for (std::size_t bit = 0; bit < kWidth; ++bit)
      windows[i].push_back(((a[i] >> bit) & 1u) != 0);
    for (std::size_t bit = 0; bit < kWidth; ++bit)
      windows[i].push_back(((b[i] >> bit) & 1u) != 0);
  }
  const auto program = cached_ripple_adder(kWidth);
  for (const bool optimized : {true, false}) {
    const PackedRunResult r = replay(*program, optimized, windows);
    ASSERT_EQ(r.outputs.size(), kOps);
    for (std::size_t i = 0; i < kOps; ++i) {
      // Sum bits LSB first, then the carry-out as bit kWidth.
      const std::vector<bool> wide = r.wide(i);
      ASSERT_EQ(wide.size(), kWidth + 1);
      std::uint64_t sum = 0;
      for (std::size_t bit = 0; bit <= kWidth; ++bit)
        if (wide[bit]) sum |= std::uint64_t{1} << bit;
      EXPECT_EQ(sum, a[i] + b[i])
          << (optimized ? "optimized" : "source") << " op " << i;
    }
    EXPECT_GT(r.writes, 0u);
    EXPECT_GT(r.latency.value(), 0.0);
  }
}

TEST(CachedKernels, SecondLookupReturnsTheSameArtifact) {
  const auto first = cached_word_equality(9);
  const auto second = cached_word_equality(9);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_NE(first.get(), cached_word_equality(10).get());
}

TEST(CachedKernels, OptimizedFormsShedPulsesOnEveryKernel) {
  EXPECT_GE(cached_word_equality(32)->stats.pulses_removed() * 20,
            cached_word_equality(32)->stats.pulses_before);
  EXPECT_GE(cached_masked_equality(32)->stats.pulses_removed() * 20,
            cached_masked_equality(32)->stats.pulses_before);
  EXPECT_GE(cached_ripple_adder(32)->stats.pulses_removed() * 20,
            cached_ripple_adder(32)->stats.pulses_before);
}

/// The packed-engine guarantee the tile/serving wiring relies on:
/// packed replay of a compiled form reconciles EXACTLY (outputs,
/// latency, energy, writes) with a scalar SIMD replay of that same
/// form on an equally-costed fabric.
TEST(CachedKernels, PackedBooksReconcileWithScalarSimdReplay) {
  const auto program = cached_word_equality(8);
  Rng rng(0xB00Cull);
  std::vector<std::vector<bool>> windows(24);
  for (auto& w : windows) w = random_word(16, rng);

  for (const bool optimized : {false, true}) {
    const PackedProgram& packed =
        optimized ? program->packed_optimized : program->packed_source;
    const PackedRunOptions& run_options =
        optimized ? program->run_optimized : program->run_source;
    const CimProgram& form = optimized ? program->optimized : program->source;

    const PackedRunResult fast = run_program_packed(packed, windows,
                                                    run_options);
    IdealFabric scalar;  // default cost model == default CompileOptions
    const SimdRunResult slow = run_program_simd(form, scalar, windows);

    EXPECT_EQ(fast.outputs, slow.outputs);
    EXPECT_EQ(fast.writes, slow.writes);
    EXPECT_EQ(fast.latency.value(), slow.latency.value());
    EXPECT_EQ(fast.energy.value(), slow.energy.value());
  }
}

/// Multi-output flavour: the adder's packed wide outputs and books
/// reconcile with run_program_simd_wide.
TEST(CachedKernels, WideBooksReconcileForTheAdder) {
  const auto program = cached_ripple_adder(6);
  Rng rng(0x5DDEull);
  std::vector<std::vector<bool>> windows(17);
  for (auto& w : windows) w = random_word(12, rng);

  PackedRunOptions run_options = program->run_optimized;
  const PackedRunResult fast =
      run_program_packed(program->packed_optimized, windows, run_options);
  IdealFabric scalar;
  const SimdWideResult slow =
      run_program_simd_wide(program->optimized, scalar, windows);

  ASSERT_EQ(fast.outputs.size(), slow.outputs.size());
  for (std::size_t w = 0; w < slow.outputs.size(); ++w)
    EXPECT_EQ(fast.wide(w), slow.outputs[w]) << "window " << w;
  EXPECT_THROW((void)fast.wide(slow.outputs.size()), Error);
  EXPECT_EQ(fast.writes, slow.writes);
  EXPECT_EQ(fast.latency.value(), slow.latency.value());
  EXPECT_EQ(fast.energy.value(), slow.energy.value());
}

}  // namespace
}  // namespace memcim::isa
