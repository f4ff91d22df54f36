// Integration tests crossing module boundaries: device models under
// circuit solves under logic programs under architecture bookkeeping.
#include <gtest/gtest.h>

#include "arch/cim_machine.h"
#include "arch/cim_tile.h"
#include "arch/cost_model.h"
#include "crossbar/crs_memory.h"
#include "crossbar/readout.h"
#include "device/presets.h"
#include "device/vcm.h"
#include "logic/cam.h"
#include "logic/packed_adder.h"
#include "support/interconnect.h"
#include "support/lut.h"
#include "workloads/dna.h"

namespace memcim {
namespace {

std::vector<bool> encode_nucleotides(const std::string& s, std::size_t from,
                                     std::size_t count) {
  std::vector<bool> bits;
  bits.reserve(count * 2);
  for (std::size_t i = 0; i < count; ++i) {
    const auto n = static_cast<std::uint8_t>(nucleotide_from_char(s[from + i]));
    bits.push_back(n & 1u);
    bits.push_back(n & 2u);
  }
  return bits;
}

// DNA matching: the CIM tile's parallel comparators and the CAM must
// agree with direct string comparison on reference windows.
TEST(Integration, DnaWindowMatchingAcrossThreeEngines) {
  Rng rng(101);
  const std::string genome = generate_genome(2000, rng);
  const std::size_t window = 12;
  const std::size_t n_windows = 24;
  const std::size_t base = 500;

  CimTileConfig tile_cfg;
  tile_cfg.rows = n_windows;
  tile_cfg.row_bits = window * 2;
  tile_cfg.cell = presets::crs_cell();
  CimTile tile(tile_cfg);

  CamConfig cam_cfg;
  cam_cfg.rows = n_windows;
  cam_cfg.word_bits = window * 2;
  cam_cfg.cell = presets::crs_cell();
  CrsCam cam(cam_cfg);

  for (std::size_t w = 0; w < n_windows; ++w) {
    const auto bits = encode_nucleotides(genome, base + w, window);
    tile.store_row(w, bits);
    cam.write_row(w, bits);
  }

  for (std::size_t probe = 0; probe < n_windows; probe += 5) {
    const auto key = encode_nucleotides(genome, base + probe, window);
    const std::vector<bool> tile_matches = tile.parallel_compare(key);
    const CamSearchResult cam_matches = cam.search(key);
    for (std::size_t w = 0; w < n_windows; ++w) {
      const bool direct =
          genome.compare(base + w, window, genome, base + probe, window) == 0;
      EXPECT_EQ(tile_matches[w], direct) << "tile row " << w;
      const bool in_cam =
          std::find(cam_matches.matching_rows.begin(),
                    cam_matches.matching_rows.end(),
                    w) != cam_matches.matching_rows.end();
      EXPECT_EQ(in_cam, direct) << "cam row " << w;
    }
  }
}

// Numbers written through the crossbar write path, read back through the
// sense path, added on the TC-adder, and stored into CRS memory.
TEST(Integration, CrossbarToAdderToMemoryPipeline) {
  const std::size_t bits = 8;
  CrossbarConfig cfg;
  cfg.rows = 2;
  cfg.cols = bits;
  CrossbarArray xbar(cfg, VcmDevice(presets::vcm_taox(), 0.0));
  WriteConfig wc;
  wc.v_write = presets::vcm_taox().v_write;
  wc.pulse = presets::vcm_taox().t_switch;
  wc.scheme = BiasScheme::kVHalf;
  const std::uint64_t a = 173, b = 58;
  for (std::size_t i = 0; i < bits; ++i) {
    ASSERT_TRUE(write_bit(xbar, 0, i, (a >> i) & 1u, wc).success);
    ASSERT_TRUE(write_bit(xbar, 1, i, (b >> i) & 1u, wc).success);
  }

  // Sense with a reference measured on a scratch array of the same shape.
  ReadConfig rc;
  rc.scheme = BiasScheme::kGrounded;
  CrossbarArray scratch(cfg, VcmDevice(presets::vcm_taox(), 0.0));
  const ReadMeasurement ref = measure_read_margin(scratch, 0, 0, rc);
  std::uint64_t a_read = 0, b_read = 0;
  for (std::size_t i = 0; i < bits; ++i) {
    if (read_bit(xbar, 0, i, rc, ref)) a_read |= 1u << i;
    if (read_bit(xbar, 1, i, rc, ref)) b_read |= 1u << i;
  }
  ASSERT_EQ(a_read, a);
  ASSERT_EQ(b_read, b);

  PackedTcAdderFarm adder(1, bits, presets::crs_cell());
  const PackedAddOutcome sum = adder.run({a_read}, {b_read});
  EXPECT_EQ(sum.sums.front(), (a + b) & 0xFFu);

  CrsMemory result_store(1, bits, presets::crs_cell());
  std::vector<bool> sum_bits(bits);
  for (std::size_t i = 0; i < bits; ++i)
    sum_bits[i] = (sum.sums.front() >> i) & 1u;
  result_store.write_word(0, sum_bits);
  EXPECT_EQ(result_store.read_word(0), sum_bits);
}

// A PLA and a LUT programmed with the same function agree on every
// input — two independent memristive logic substrates cross-checked.
TEST(Integration, PlaAndLutAgreeOnArbitraryFunctions) {
  Rng rng(77);
  for (int trial = 0; trial < 5; ++trial) {
    // Random 3-input truth table.
    std::vector<bool> truth(8);
    for (auto&& bit : truth) bit = rng.bernoulli(0.5);

    CrsLut lut(3, 1, presets::crs_cell());
    lut.program(0, [&](std::uint64_t m) { return truth[m]; });

    // PLA: one product per true minterm.
    const auto n_true = static_cast<std::size_t>(
        std::count(truth.begin(), truth.end(), true));
    ResistivePla pla(3, std::max<std::size_t>(n_true, 1), 1,
                     presets::crs_cell());
    std::size_t term = 0;
    for (std::uint64_t m = 0; m < 8; ++m) {
      if (!truth[m]) continue;
      std::vector<PlaLiteral> lits;
      for (std::size_t v = 0; v < 3; ++v)
        lits.push_back({v, ((m >> v) & 1u) != 0});
      pla.program_product(term, lits);
      pla.attach_product(term, 0);
      ++term;
    }

    for (std::uint64_t m = 0; m < 8; ++m) {
      const std::vector<bool> in{bool(m & 1), bool(m & 2), bool(m & 4)};
      const bool expected = truth[m];
      EXPECT_EQ(lut.evaluate_single(m), expected) << "trial " << trial;
      if (n_true > 0) {
        EXPECT_EQ(pla.evaluate(in)[0], expected) << "trial " << trial;
      }
    }
  }
}

// Functional workload measurements feed the analytical model: using the
// *observed* comparison count from the scaled pipeline instead of the
// paper's closed form changes the metrics' magnitude but never the
// CIM-vs-conventional ordering.
TEST(Integration, MeasuredWorkloadKeepsTable2Ordering) {
  Rng rng(55);
  const std::string genome = generate_genome(20'000, rng);
  ReadSetParams params;
  params.coverage = 2.0;
  params.read_length = 50;
  const auto reads = generate_reads(genome, params, rng);
  const MatchStats stats = match_reads(genome, reads, 16);
  ASSERT_GT(stats.paper_comparisons(), 0u);

  const Table1 t = paper_table1();
  WorkloadSpec spec = dna_workload_spec(t);
  spec.operations = static_cast<double>(stats.paper_comparisons());
  spec.parallel_units = 64.0;  // small machine
  const ArchCost conv = evaluate_conventional(spec, t);
  const ArchCost cim = evaluate_cim(spec, t);
  EXPECT_GT(conv.energy_delay_per_op() / cim.energy_delay_per_op(), 1e3);
  EXPECT_GT(cim.computing_efficiency() / conv.computing_efficiency(), 1e3);
  EXPECT_GT(conv.total_energy.value(), cim.total_energy.value());
}

// The multi-tile machine equals per-tile results composed by hand.
TEST(Integration, MachineSearchEqualsManualTileSearches) {
  CimMachineConfig mc;
  mc.tiles = 3;
  mc.tile.rows = 4;
  mc.tile.row_bits = 8;
  mc.tile.cell = presets::crs_cell();
  CimMachine machine(mc);

  std::vector<CimTile> manual;
  for (std::size_t i = 0; i < 3; ++i) manual.emplace_back(mc.tile);

  Rng rng(31);
  std::vector<std::vector<bool>> words;
  for (std::size_t r = 0; r < 12; ++r) {
    std::vector<bool> w(8);
    for (auto&& bit : w) bit = rng.bernoulli(0.5);
    words.push_back(w);
    machine.store(r, w);
    manual[r / 4].store_row(r % 4, w);
  }
  const auto& key = words[7];
  const auto machine_hits = machine.search(key);
  std::vector<std::size_t> manual_hits;
  for (std::size_t ti = 0; ti < 3; ++ti) {
    const auto m = manual[ti].parallel_compare(key);
    for (std::size_t r = 0; r < 4; ++r)
      if (m[r]) manual_hits.push_back(ti * 4 + r);
  }
  EXPECT_EQ(machine_hits, manual_hits);
}

}  // namespace
}  // namespace memcim
