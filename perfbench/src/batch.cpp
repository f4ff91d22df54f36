// batch_sharded: the paper's two batch workloads (Sec. III.B) without
// the serving front end, on a 4×4 fabric — sharded_parallel_add over
// 10^6 32-bit additions, then sharded_kmer_search of every k-mer of a
// seeded read set against a k-mer database resident in the tiles.
// Per-tile work is bulk, so the thread pool really parallelises, and
// each call is one long NoC session.
#include <iostream>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "common/parallel.h"
#include "device/presets.h"
#include "replay.h"
#include "workloads/sharded.h"

namespace perfbench {

namespace {

using namespace memcim;

struct BatchSpec {
  TileFabricConfig fabric;
  ParallelAddParams add;
  std::size_t genome_bases = 4096;
  std::size_t k = 32;  ///< bases per k-mer (2 bits each = row_bits)
  std::size_t reads = 2;
  std::size_t read_min = 94;  ///< read lengths are uniform in [min, max]
  std::size_t read_max = 97;
  double error_rate = 0.01;  ///< per-base substitutions in the reads
};

BatchSpec batch_spec() {
  BatchSpec s;
  s.fabric.width = 4;
  s.fabric.height = 4;
  s.fabric.tile.rows = 64;
  s.fabric.tile.row_bits = 2 * s.k;
  s.fabric.tile.cell = presets::crs_cell();
  s.add.operations = 1'000'000;
  s.add.width = 32;
  s.add.adders = 256;
  return s;
}

struct BatchInputs {
  /// sharded_parallel_add draws its operands from an Rng it is handed;
  /// the benchmark seeds it and redraws the same stream to check sums.
  std::uint64_t add_seed = 0;
  std::vector<std::vector<bool>> database;
  std::vector<std::vector<bool>> queries;
};

/// 2 bits per base, LSB first (A=00, C=01, G=10, T=11).
std::vector<bool> encode(const std::string& bases, std::size_t pos, std::size_t k) {
  std::vector<bool> bits(2 * k);
  for (std::size_t i = 0; i < k; ++i) {
    const char c = bases[pos + i];
    const unsigned code = c == 'A' ? 0u : c == 'C' ? 1u : c == 'G' ? 2u : 3u;
    bits[2 * i] = (code & 1u) != 0;
    bits[2 * i + 1] = (code >> 1) != 0;
  }
  return bits;
}

BatchInputs make_inputs(const BatchSpec& s, std::uint64_t seed) {
  InputRng rng(seed ^ 0xBA7C0000ull);
  BatchInputs in;
  in.add_seed = rng.next();
  static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  std::string genome(s.genome_bases, 'A');
  for (char& c : genome) c = kBases[rng.below(4)];
  const std::size_t rows = s.fabric.width * s.fabric.height * s.fabric.tile.rows;
  for (std::size_t r = 0; r < rows; ++r)
    in.database.push_back(encode(genome, rng.below(s.genome_bases - s.k + 1), s.k));
  for (std::size_t i = 0; i < s.reads; ++i) {
    const std::size_t len = s.read_min + rng.below(s.read_max - s.read_min + 1);
    std::string read = genome.substr(rng.below(s.genome_bases - len + 1), len);
    for (char& c : read)
      if (rng.unit() < s.error_rate) c = kBases[rng.below(4)];
    for (std::size_t p = 0; p + s.k <= len; ++p) in.queries.push_back(encode(read, p, s.k));
  }
  return in;
}

/// The operand stream sharded_parallel_add draws (its documented order:
/// a then b per op, uniform over the width).
void draw_operands(const BatchSpec& s, std::uint64_t seed, std::vector<std::uint64_t>& a,
                   std::vector<std::uint64_t>& b) {
  Rng rng(seed);
  const auto max = static_cast<std::int64_t>((std::uint64_t{1} << s.add.width) - 1);
  a.resize(s.add.operations);
  b.resize(s.add.operations);
  for (std::size_t i = 0; i < s.add.operations; ++i) {
    a[i] = static_cast<std::uint64_t>(rng.uniform_int(0, max));
    b[i] = static_cast<std::uint64_t>(rng.uniform_int(0, max));
  }
}

/// One execution of the two calls on a fresh fabric.
struct BatchRun {
  explicit BatchRun(const BatchSpec& s) : fabric(s.fabric) {}
  TileFabric fabric;
  std::optional<ShardedAddResult> add;
  std::optional<ShardedSearchResult> search;
  std::size_t add_end = 0;  ///< first NoC handle of the search session
  std::uint64_t add_ns = 0;
  std::uint64_t search_ns = 0;

  void execute(const BatchSpec& s, const BatchInputs& in) {
    add_ns = time_ns([&] {
      Rng rng(in.add_seed);
      add = sharded_parallel_add(fabric, s.add, s.fabric.tile.cell, rng);
    });
    add_end = fabric.noc().deliveries().size();
    search_ns = time_ns(
        [&] { search = sharded_kmer_search(fabric, in.database, in.queries); });
  }
};

struct BatchBooks {
  std::uint64_t digest = 0;
  std::uint64_t items = 0;
  std::uint64_t wrong = 0;
  double capacity_qps = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double energy_fj = 0.0;
};

BatchBooks check_run(const BatchSpec& s, const BatchInputs& in, const BatchRun& r,
                     Outcome& out) {
  BatchBooks b;
  const ShardedAddResult& add = *r.add;
  const ShardedSearchResult& search = *r.search;
  b.items = s.add.operations + in.queries.size();
  Digest d;

  std::vector<std::uint64_t> op_a, op_b;
  draw_operands(s, in.add_seed, op_a, op_b);
  const std::uint64_t mask = (std::uint64_t{1} << s.add.width) - 1;
  if (add.merged.sums.size() != s.add.operations) {
    out.fail("sharded_parallel_add returned the wrong number of sums");
    b.wrong += s.add.operations;
  } else {
    for (std::size_t i = 0; i < s.add.operations; ++i) {
      if (add.merged.sums[i] != ((op_a[i] + op_b[i]) & mask)) ++b.wrong;
      d.add(add.merged.sums[i]);
    }
  }
  out.expect(add.merged.mismatches == 0, "adder farm reports no mismatch");

  std::unordered_map<std::uint64_t, std::vector<std::size_t>> index;
  for (std::size_t row = 0; row < in.database.size(); ++row)
    index[pack_word(in.database[row])].push_back(row);
  static const std::vector<std::size_t> kNone;
  if (search.matches.size() != in.queries.size()) {
    out.fail("sharded_kmer_search returned the wrong number of match lists");
    b.wrong += in.queries.size();
  } else {
    for (std::size_t q = 0; q < in.queries.size(); ++q) {
      const auto it = index.find(pack_word(in.queries[q]));
      if (search.matches[q] != (it == index.end() ? kNone : it->second)) ++b.wrong;
      d.add(search.matches[q].size());
      for (const std::size_t m : search.matches[q]) d.add(m);
    }
  }
  out.expect(b.wrong == 0, std::to_string(b.wrong) + " wrong output(s)");

  d.add(add.merged.total_pulses);
  d.add(add.merged.transitions);
  d.add_double(add.merged.total_energy.value());
  d.add_double(add.merged.latency.value());
  for (const std::uint64_t t : add.shard_transitions) d.add(t);
  for (const ShardedRunStats* run : {&add.run, &search.run}) {
    d.add(run->makespan);
    d.add_double(run->compute_energy.value());
    d.add_double(run->noc_energy.value());
    d.add(run->flits);
    d.add(run->flit_hops);
    d.add_double(run->fabric_utilization);
  }
  const NocStats& ns = r.fabric.noc().stats();
  for (const std::uint64_t v :
       {ns.packets, ns.flits, ns.flit_hops, ns.ejections, ns.buffer_writes,
        ns.buffer_reads, ns.xbar_traversals, ns.credit_stalls, ns.cycles})
    d.add(v);

  // Per-query completion: the last tile's completion for that query at
  // the host, counted from the search session's start (every query is
  // sent then).  The add phase's 16 shard completions show only in its
  // makespan.
  const std::vector<NocDelivery>& dl = r.fabric.noc().deliveries();
  const std::size_t queries = in.queries.size();
  const std::size_t tiles = s.fabric.width * s.fabric.height;
  const double cycle_ns = s.fabric.noc.cycle.value() * 1e9;
  bool shape_ok = dl.size() == r.add_end + 2 * tiles * queries;
  std::vector<NocCycle> done(queries, 0);
  const NocCycle start = shape_ok ? dl[r.add_end].released : 0;
  for (std::size_t t = 0; shape_ok && t < tiles; ++t)
    for (std::size_t q = 0; q < queries; ++q) {
      const NocDelivery& resp = dl[r.add_end + 2 * (t * queries + q) + 1];
      shape_ok = shape_ok && resp.done && resp.tag == 2 * (t * queries + q) + 1;
      done[q] = std::max(done[q], resp.delivered);
    }
  out.expect(shape_ok, "search session has one command/completion pair per tile and query");
  std::vector<NocCycle> latency;
  for (const NocCycle c : done) latency.push_back(c > start ? c - start : 0);
  b.p50_ns = static_cast<double>(nearest_rank(latency, 0.50)) * cycle_ns;
  b.p99_ns = static_cast<double>(nearest_rank(latency, 0.99)) * cycle_ns;
  const double virt_s = static_cast<double>(add.run.makespan + search.run.makespan) *
                        s.fabric.noc.cycle.value();
  b.capacity_qps = virt_s > 0.0 ? static_cast<double>(b.items) / virt_s : 0.0;
  b.energy_fj = (add.run.energy() + search.run.energy()).value() /
                static_cast<double>(b.items) * 1e15;
  for (const double v : {b.capacity_qps, b.p50_ns, b.p99_ns, b.energy_fj}) d.add_double(v);
  b.digest = d.value();
  return b;
}

}  // namespace

Outcome run_batch(const RunOptions& opt) {
  const BatchSpec spec = batch_spec();
  Outcome out;
  HostSamples host;
  std::optional<BatchBooks> first;
  repeat_for(opt.seconds, out, [&](bool timed) {
    const auto t0 = Clock::now();
    const BatchInputs in = make_inputs(spec, opt.seed);
    warm_compile_cache(spec.fabric.tile);
    BatchRun run(spec);
    const auto t1 = Clock::now();
    run.execute(spec, in);
    const BatchBooks b = check_run(spec, in, run, out);
    out.attempted += b.items;
    out.failed += b.wrong;
    if (timed) {
      host.setup_s.push_back(std::chrono::duration<double>(t1 - t0).count());
      host.items_per_s.push_back(static_cast<double>(b.items) * 1e9 /
                                 static_cast<double>(run.add_ns + run.search_ns));
    }
    if (!first) first = b;
    return b.digest;
  });

  add_host_metrics(out, host);
  out.metric("virt_capacity_qps", first->capacity_qps, "items/s");
  out.metric("virt_p50_ns", first->p50_ns, "ns");
  out.metric("virt_p99_ns", first->p99_ns, "ns");
  out.metric("virt_energy_per_item_fj", first->energy_fj, "fJ");
  std::ostringstream note;
  note << "virt: digest " << hex64(first->digest) << ", " << first->items << " items ("
       << spec.add.operations << " additions + " << first->items - spec.add.operations
       << " k-mer queries), fail_rate "
       << static_cast<double>(out.failed) / static_cast<double>(out.attempted)
       << " (digest checked at every repetition and at 1 thread)";
  out.notes.push_back(note.str());
  return out;
}

namespace {

/// Host-time totals of one traced round, each replay checked against
/// the round's own traced run.
struct BatchRound {
  std::uint64_t untraced_ns = 0;
  std::uint64_t add_call_ns = 0;
  std::uint64_t search_call_ns = 0;
  std::uint64_t add_ns = 0;      ///< Σ serial adder-shard calls
  std::uint64_t compare_ns = 0;  ///< Σ serial tile compares
  std::uint64_t pulses = 0;
  PoolBooks add_pool, compare_pool;
  NocLayer noc;
  BatchBooks books;
  [[nodiscard]] double wall() const {
    return static_cast<double>(add_call_ns + search_call_ns);
  }
};

BatchRound traced_round(const BatchSpec& spec, const BatchInputs& in, SpanLog& log,
                        Outcome& out) {
  const std::size_t tiles = spec.fabric.width * spec.fabric.height;
  const std::size_t queries = in.queries.size();
  BatchRound tr;

  // Untraced pass, then the traced pass with spans around both calls.
  BatchRun plain(spec);
  plain.execute(spec, in);
  tr.untraced_ns = plain.add_ns + plain.search_ns;
  const BatchBooks plain_books = check_run(spec, in, plain, out);
  BatchRun run(spec);
  const std::uint64_t t0 = log.now();
  run.execute(spec, in);
  log.add("workloads.sharded_add", "", "run", 0, t0, t0 + run.add_ns);
  log.add("workloads.sharded_search", "", "run", 1, t0 + run.add_ns,
          t0 + run.add_ns + run.search_ns);
  tr.add_call_ns = run.add_ns;
  tr.search_call_ns = run.search_ns;
  tr.books = check_run(spec, in, run, out);
  out.expect(tr.books.digest == plain_books.digest,
             "traced run reproduces the untraced virtual digest");
  if (!out.correct) return tr;  // the replays below trust the checked run
  const ShardedAddResult& add = *run.add;
  const ShardedSearchResult& search = *run.search;
  const std::vector<NocSession> sessions = {
      {0, run.add_end, 0}, {run.add_end, run.fabric.noc().deliveries().size(), 1}};

  // logic: every adder shard on a fresh farm, as a pool task, then the
  // same shards through parallel_for.
  std::vector<std::uint64_t> op_a, op_b;
  draw_operands(spec, in.add_seed, op_a, op_b);
  const auto run_shard = [&](const Shard& sh) {
    ParallelAddParams params = spec.add;
    params.operations = sh.size();
    params.record_per_op = true;
    const auto lo = static_cast<std::ptrdiff_t>(sh.begin);
    const auto hi = static_cast<std::ptrdiff_t>(sh.end);
    return run_parallel_add_ops(params, spec.fabric.tile.cell,
                                {op_a.begin() + lo, op_a.begin() + hi},
                                {op_b.begin() + lo, op_b.begin() + hi});
  };
  std::vector<ParallelAddResult> shards(tiles);
  run_as_pool_task([&] {
    for (const Shard& sh : add.plan.shards) {
      if (sh.empty()) continue;
      const std::uint64_t s0 = log.now();
      shards[sh.tile] = run_shard(sh);
      const std::uint64_t s1 = log.now();
      log.add("logic.add", "workloads.sharded_add", "compute", sh.tile, s0, s1);
      tr.add_ns += s1 - s0;
    }
  });
  {
    bool same = true;
    std::vector<double> op_energy(spec.add.operations, 0.0);
    std::vector<NocCycle> offsets;
    for (const Shard& sh : add.plan.shards) {
      if (sh.empty()) continue;
      const ParallelAddResult& r = shards[sh.tile];
      for (std::size_t i = 0; i < sh.size(); ++i) {
        same = same && r.sums[i] == add.merged.sums[sh.begin + i];
        op_energy[sh.begin + i] = r.op_energy[i];
      }
      tr.pulses += r.total_pulses;
      same = same && r.transitions == add.shard_transitions[sh.tile];
      offsets.push_back(run.fabric.compute_cycles(r.latency));
    }
    Energy total{0.0};
    for (const double e : op_energy) total += Energy(e);
    same = same && tr.pulses == add.merged.total_pulses &&
           total.value() == add.merged.total_energy.value() &&
           offsets == completion_offsets(run.fabric.noc(), sessions[0]);
    out.expect(same,
               "adder shard replay reproduces sums, pulses, energy and compute cycles");
  }
  tr.add_pool.add_unit(static_cast<double>(tr.add_ns),
                       static_cast<double>(time_ns([&] {
                         parallel_for(0, tiles, 1, [&](std::size_t t) {
                           if (!add.plan.shards[t].empty())
                             (void)run_shard(add.plan.shards[t]);
                         });
                       })));

  // arch: every (tile, query) compare on standalone tiles holding the
  // same rows, as pool tasks, then through parallel_for.
  const std::size_t rows = spec.fabric.tile.rows;
  const auto make_tiles = [&] {
    std::vector<CimTile> t;
    for (std::size_t i = 0; i < tiles; ++i) t.emplace_back(spec.fabric.tile);
    for (std::size_t r = 0; r < in.database.size(); ++r)
      t[r / rows].store_row(r % rows, in.database[r]);
    return t;
  };
  std::vector<CimTile> serial_tiles = make_tiles();
  std::vector<std::vector<std::vector<bool>>> matches(tiles);
  std::vector<NocCycle> offsets;
  Energy compute_energy{0.0};
  run_as_pool_task([&] {
    for (std::size_t t = 0; t < tiles; ++t) {
      CimTile& tile = serial_tiles[t];
      const Energy e0 = tile.stats().energy;
      const std::uint64_t s0 = log.now();
      for (const std::vector<bool>& q : in.queries) {
        const Time l0 = tile.stats().latency;
        const std::uint64_t c0 = log.now();
        matches[t].push_back(tile.parallel_compare(q));
        tr.compare_ns += log.now() - c0;
        offsets.push_back(run.fabric.compute_cycles(tile.stats().latency - l0));
      }
      log.add("arch.compare", "workloads.sharded_search", "compute", t, s0, log.now());
      compute_energy += tile.stats().energy - e0;
    }
  });
  {
    bool same = offsets == completion_offsets(run.fabric.noc(), sessions[1]) &&
                compute_energy.value() == search.run.compute_energy.value();
    for (std::size_t q = 0; same && q < queries; ++q) {
      std::vector<std::size_t> merged;
      for (std::size_t t = 0; t < tiles; ++t)
        for (std::size_t r = 0; r < rows; ++r)
          if (matches[t][q][r]) merged.push_back(t * rows + r);
      same = merged == search.matches[q];
    }
    out.expect(same, "tile compare replay reproduces matches, energy and compute cycles");
  }
  std::vector<CimTile> pool_tiles = make_tiles();
  tr.compare_pool.add_unit(static_cast<double>(tr.compare_ns),
                           static_cast<double>(time_ns([&] {
                             parallel_for(0, tiles, 1, [&](std::size_t t) {
                               for (const std::vector<bool>& q : in.queries)
                                 (void)pool_tiles[t].parallel_compare(q);
                             });
                           })));

  // noc: both sessions re-injected into one standalone mesh.
  tr.noc = replay_noc(run.fabric.noc(), sessions, "workloads", log, out);
  return tr;
}

}  // namespace

Outcome trace_batch(const RunOptions& opt) {
  const BatchSpec spec = batch_spec();
  Outcome out;
  SpanLog log;
  const BatchInputs in = make_inputs(spec, opt.seed);
  const std::size_t tiles = spec.fabric.width * spec.fabric.height;
  const std::size_t rows = spec.fabric.tile.rows;
  const double queries = static_cast<double>(in.queries.size());

  const std::uint64_t compile_ns = time_ns([&] { warm_compile_cache(spec.fabric.tile); });
  const std::vector<BatchRound> rounds = rounds_for<BatchRound>(
      opt.seconds, out, log, [&] { return traced_round(spec, in, log, out); });
  for (const BatchRound& r : rounds) {
    out.attempted += 2 * r.books.items;  // untraced + traced pass
    out.failed += 2 * r.books.wrong;
  }
  const BatchRound& first = rounds.front();

  const double wall = best(rounds, [](const BatchRound& r) { return r.wall(); });
  const double untraced = best(rounds, [](const BatchRound& r) { return r.untraced_ns; });
  const double add_call = best(rounds, [](const BatchRound& r) { return r.add_call_ns; });
  const double search_call =
      best(rounds, [](const BatchRound& r) { return r.search_call_ns; });
  const double add_ns = best(rounds, [](const BatchRound& r) { return r.add_ns; });
  const double compare_ns = best(rounds, [](const BatchRound& r) { return r.compare_ns; });
  const double add_part =
      best(rounds, [](const BatchRound& r) { return r.add_pool.contribution_ns; });
  const double compare_part =
      best(rounds, [](const BatchRound& r) { return r.compare_pool.contribution_ns; });
  const double noc_ns = best(rounds, [](const BatchRound& r) { return r.noc.run_ns; });
  const double serial_ns = best(rounds, [](const BatchRound& r) {
    return r.add_pool.serial_ns + r.compare_pool.serial_ns;
  });
  const double parallel_ns = best(rounds, [](const BatchRound& r) {
    return r.add_pool.parallel_ns + r.compare_pool.parallel_ns;
  });
  const double children = add_part + compare_part + noc_ns;
  const NocLayer& noc = first.noc;
  const auto ops = static_cast<double>(spec.add.operations);
  const double compare_calls = static_cast<double>(tiles) * queries;
  const auto threads = static_cast<double>(parallel_threads());
  const LayerValues values = {
      {"arch.compare_calls", compare_calls},
      {"arch.compare_ns", compare_ns},
      {"arch.compare_ns_per_row", compare_ns / (compare_calls * static_cast<double>(rows))},
      {"logic.add_ops", ops},
      {"logic.add_ns", add_ns},
      {"logic.add_ns_per_op", add_ns / ops},
      {"logic.pulses", static_cast<double>(first.pulses)},
      {"noc.sessions", static_cast<double>(noc.sessions)},
      {"noc.run_ns", noc_ns},
      {"noc.cycles", static_cast<double>(noc.cycles)},
      {"noc.ns_per_cycle",
       noc.cycles > 0 ? noc_ns / static_cast<double>(noc.cycles) : 0.0},
      {"noc.flits", static_cast<double>(noc.flits)},
      {"noc.flit_hops", static_cast<double>(noc.flit_hops)},
      {"noc.credit_stalls", static_cast<double>(noc.credit_stalls)},
      {"noc.nic_wait_p99_cycles", static_cast<double>(noc.nic_wait_p99_cycles)},
      {"noc.repeat_session_share", noc.repeat_session_share},
      {"isa.compile_ns", static_cast<double>(compile_ns)},
      {"workloads.sharded_add_ns", add_call},
      {"workloads.sharded_search_ns", search_call},
      {"workloads.self_ns", wall - children},
      {"pool.threads", threads},
      {"pool.efficiency", parallel_ns > 0.0 ? serial_ns / (threads * parallel_ns) : 0.0},
      {"trace.overhead_pct", 100.0 * (wall - untraced) / untraced},
  };
  add_layer_metrics(out, values);

  const std::vector<LayerRow> table = {
      {"workloads", 2, wall, wall - children},
      {"  logic (add)", spec.add.operations, add_part, add_part},
      {"  arch (compare)", tiles * in.queries.size(), compare_part, compare_part},
      {"  noc", noc.sessions, noc_ns, noc_ns},
  };
  std::cout << "per-layer host time, best of " << rounds.size() << " rounds:\n";
  print_layer_table(table, wall, "workload wall (sharded_add + sharded_search)");
  out.notes.push_back(std::string("layer nesting (children <= parent): ") +
                      (children <= wall ? "holds" : "VIOLATED (host-time noise)"));
  out.notes.push_back("replays: " + std::string(out.correct ? "every book reproduced exactly"
                                                            : "DIVERGED") +
                      "; " + std::to_string(log.size()) + " spans");
  if (!opt.span_file.empty() && !log.write(opt.span_file, opt.workload, opt.seed))
    out.fail("cannot write span log " + opt.span_file);
  return out;
}

}  // namespace perfbench
