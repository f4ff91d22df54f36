// DNA short-read matching — the paper's healthcare scenario, end to
// end on a laptop-scale synthetic genome:
//
//   1. generate a reference genome and an error-free + errored read set,
//   2. run today's practical solution (sorted index + binary search) and
//      count the character comparisons it really performs,
//   3. run the CIM alternative: reads matched by parallel in-crossbar
//      comparators on a CimTile,
//   4. feed the measured operation counts through the Table 2 cost
//      models and print the conventional-vs-CIM verdict.
//
// Build & run:  ./build/examples/dna_pipeline
#include <iostream>

#include "arch/cim_tile.h"
#include "arch/cost_model.h"
#include "common/table.h"
#include "device/presets.h"
#include "workloads/dna.h"
#include "workloads/sharded.h"

int main() {
  using namespace memcim;

  Rng rng(0xD7A);
  const std::string genome = generate_genome(60'000, rng);
  ReadSetParams params;
  params.coverage = 4.0;
  params.read_length = 64;
  params.error_rate = 0.01;
  const auto reads = generate_reads(genome, params, rng);

  // --- conventional pipeline -------------------------------------------------
  const MatchStats stats = match_reads(genome, reads, 16);
  const MatchStats tolerant =
      match_reads_tolerant(genome, reads, 16, /*seeds=*/4, /*max_mismatches=*/3);
  TextTable conv({"Sorted-index pipeline", "exact", "seeded+tolerant"});
  conv.add_row({"genome bases", std::to_string(genome.size()), ""});
  conv.add_row({"reads (1% error rate)", std::to_string(stats.reads_total),
                std::to_string(tolerant.reads_total)});
  conv.add_row({"matched", std::to_string(stats.reads_matched),
                std::to_string(tolerant.reads_matched)});
  conv.add_row({"char comparisons",
                std::to_string(stats.character_comparisons),
                std::to_string(tolerant.character_comparisons)});
  std::cout << conv.to_text()
            << "\nSequencing errors break the exact k-mer pipeline; multi-\n"
               "seed lookup + mismatch tolerance recovers the reads.\n\n";

  // --- CIM pipeline: parallel comparators over a tile ------------------------
  // Store 32 reference windows in a tile, compare one read pattern
  // against all of them in a single comparator pass (2 bits/nucleotide).
  const std::size_t window = 16;  // nucleotides per row
  CimTileConfig tile_cfg;
  tile_cfg.rows = 32;
  tile_cfg.row_bits = window * 2;
  tile_cfg.cell = presets::crs_cell();
  CimTile tile(tile_cfg);

  const std::size_t key_pos = 12'345;
  for (std::size_t r = 0; r < tile_cfg.rows; ++r)  // row 7 matches
    tile.store_row(r, encode_kmer(genome, key_pos - 7 + r, window));
  const std::vector<bool> matches =
      tile.parallel_compare(encode_kmer(genome, key_pos, window));
  std::size_t hit_row = tile_cfg.rows;
  for (std::size_t r = 0; r < matches.size(); ++r)
    if (matches[r]) hit_row = r;

  TextTable cim({"CIM tile pipeline", "value"});
  cim.add_row({"rows compared in parallel", std::to_string(tile_cfg.rows)});
  cim.add_row({"matching row", std::to_string(hit_row)});
  cim.add_row({"pass latency", si_string(tile.stats().latency.value(), "s")});
  cim.add_row({"pass energy", si_string(tile.stats().energy.value(), "J")});
  std::cout << cim.to_text() << '\n';

  // --- architecture verdict at paper scale -----------------------------------
  const Table1 t1 = paper_table1();
  const WorkloadSpec spec = dna_workload_spec(t1);
  const ArchCost conv_cost = evaluate_conventional(spec, t1);
  const ArchCost cim_cost = evaluate_cim(spec, t1);
  TextTable verdict({"Full-scale metric (200GB vs 3GB ref)", "conventional",
                     "CIM", "gain"});
  verdict.add_row({"energy-delay/op [J*s]",
                   sci_string(conv_cost.energy_delay_per_op()),
                   sci_string(cim_cost.energy_delay_per_op()),
                   fixed_string(conv_cost.energy_delay_per_op() /
                                    cim_cost.energy_delay_per_op(), 0) + "x"});
  verdict.add_row({"efficiency [ops/J]",
                   sci_string(conv_cost.computing_efficiency()),
                   sci_string(cim_cost.computing_efficiency()),
                   fixed_string(cim_cost.computing_efficiency() /
                                    conv_cost.computing_efficiency(), 0) + "x"});
  verdict.add_row({"total energy [J]", sci_string(conv_cost.total_energy.value()),
                   sci_string(cim_cost.total_energy.value()), ""});
  std::cout << verdict.to_text();
  return 0;
}
