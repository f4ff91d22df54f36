#include "fault/campaign.h"

#include "common/error.h"
#include "common/rng.h"
#include "crossbar/readout.h"
#include "device/presets.h"
#include "device/vcm.h"
#include "fault/crossbar_faults.h"
#include "fault/fabric_faults.h"
#include "logic/adder.h"
#include "logic/cam.h"
#include "logic/crs_fabric.h"
#include "logic/ideal_fabric.h"
#include "logic/packed_adder.h"
#include "noc/mesh.h"
#include "telemetry/json_writer.h"
#include "telemetry/telemetry.h"
#include "workloads/dna.h"
#include "workloads/parallel_add.h"
#include "workloads/sharded.h"

namespace memcim {

namespace {

/// Per-target trial classification counters
/// ("fault.<target>.clean|corrected|detected|silent" plus totals).
/// Called once per finished campaign; the tally itself is already a
/// deterministic reduction, so the counters inherit that property.
CampaignTally record_campaign(CampaignTally tally) {
  if (telemetry::enabled()) {
    telemetry::Registry& reg = telemetry::Registry::global();
    reg.counter("fault.campaigns").add(1);
    reg.counter("fault.armed_faults").add(tally.armed_faults);
    const std::string base = "fault." + tally.target;
    reg.counter(base + ".trials").add(tally.diff.trials);
    reg.counter(base + ".clean").add(tally.diff.clean);
    reg.counter(base + ".corrected").add(tally.diff.corrected);
    reg.counter(base + ".detected").add(tally.diff.detected);
    reg.counter(base + ".silent").add(tally.diff.silent);
  }
  return tally;
}

/// Independent stream per (campaign seed, target, rate[, trial]).
std::uint64_t derive(std::uint64_t seed, std::uint64_t tag, double rate,
                     std::uint64_t trial = 0) {
  return splitmix64(seed ^ splitmix64(tag) ^
                    splitmix64(static_cast<std::uint64_t>(rate * 1e9)) ^
                    splitmix64(trial + 0x51ull));
}

/// The standard stuck-at mix: half the armed sites pin to LRS, half to
/// HRS (each drawn independently at rate/2).
std::vector<FaultSpec> stuck_specs(double rate) {
  return {{FaultKind::kStuckAtLrs, rate / 2.0, 1.0, 0.0},
          {FaultKind::kStuckAtHrs, rate / 2.0, 1.0, 0.0}};
}

/// Stuck-ats plus the transient classes, for fabric-register targets.
std::vector<FaultSpec> fabric_specs(double rate) {
  std::vector<FaultSpec> specs = stuck_specs(rate);
  specs.push_back({FaultKind::kWriteFail, rate, 0.5, 0.0});
  specs.push_back({FaultKind::kReadDisturb, rate, 0.5, 0.0});
  return specs;
}

std::uint64_t random_operand(Rng& rng, std::size_t bits) {
  const std::uint64_t max = (std::uint64_t{1} << bits) - 1;
  return static_cast<std::uint64_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(max)));
}

}  // namespace

CampaignTally run_ecc_campaign(const CampaignConfig& config, double rate) {
  CampaignTally tally;
  tally.target = "ecc_memory";
  tally.rate = rate;

  FaultPlan plan = FaultPlan::draw(config.ecc_words * kEccCodewordBits,
                                   derive(config.seed, 0xECC, rate),
                                   stuck_specs(rate));
  tally.armed_faults = plan.armed_count();

  EccCrsMemory memory(config.ecc_words, presets::crs_cell());
  Rng data_rng(derive(config.seed, 0xECCDA7A, rate));
  std::vector<std::uint8_t> written(config.ecc_words);
  for (std::size_t w = 0; w < config.ecc_words; ++w) {
    written[w] = static_cast<std::uint8_t>(data_rng.uniform_int(0, 255));
    memory.write_byte(w, written[w]);
  }

  (void)apply_fault_plan(memory, plan);

  // Effective flips per word: a stuck cell corrupts only where the
  // stored codeword bit disagrees with the pinned value.
  std::vector<std::size_t> flips(config.ecc_words, 0);
  for (std::size_t w = 0; w < config.ecc_words; ++w) {
    const auto codeword = ecc_encode(written[w]);
    for (std::size_t bit = 0; bit < kEccCodewordBits; ++bit) {
      const auto stuck = plan.stuck_bit(w * kEccCodewordBits + bit);
      if (stuck && *stuck != codeword[bit]) ++flips[w];
    }
  }

  for (std::size_t w = 0; w < config.ecc_words; ++w) {
    const EccDecodeResult r = memory.read_byte(w);
    const bool data_ok = r.data == written[w];
    DiffOutcome outcome = DiffOutcome::kSilent;
    switch (flips[w]) {
      case 0:
        outcome = data_ok && !r.uncorrectable ? DiffOutcome::kClean
                                              : DiffOutcome::kSilent;
        break;
      case 1:
        ++tally.single_bit_injected;
        if (r.corrected && data_ok && !r.uncorrectable) {
          ++tally.single_bit_corrected;
          outcome = DiffOutcome::kCorrected;
        } else {
          outcome =
              r.uncorrectable ? DiffOutcome::kDetected : DiffOutcome::kSilent;
        }
        break;
      case 2:
        ++tally.double_bit_injected;
        if (r.uncorrectable) {
          ++tally.double_bit_detected;
          outcome = DiffOutcome::kDetected;
        } else {
          outcome = data_ok ? DiffOutcome::kClean : DiffOutcome::kSilent;
        }
        break;
      default:  // ≥ 3 flips: beyond SECDED, anything can happen
        if (r.uncorrectable)
          outcome = DiffOutcome::kDetected;
        else
          outcome = data_ok ? DiffOutcome::kClean : DiffOutcome::kSilent;
        break;
    }
    tally.diff.add(outcome);
  }
  return record_campaign(std::move(tally));
}

CampaignTally run_imply_adder_campaign(const CampaignConfig& config,
                                       double rate, bool crs_backend) {
  CampaignTally tally;
  tally.target = crs_backend ? "imply_adder_crs" : "imply_adder_ideal";
  tally.rate = rate;
  const std::uint64_t tag = crs_backend ? 0xADD2ull : 0xADD1ull;

  // Size the register population from one golden run.
  const std::size_t population = [&] {
    IdealFabric probe;
    (void)add_integers(probe, 0, 0, config.adder_bits);
    return probe.size();
  }();

  const std::uint64_t mask = (std::uint64_t{1} << config.adder_bits) - 1;
  Rng operand_rng(derive(config.seed, tag, rate));
  for (std::size_t trial = 0; trial < config.adder_trials; ++trial) {
    FaultPlan plan = FaultPlan::draw(
        population, derive(config.seed, tag, rate, trial), fabric_specs(rate));
    tally.armed_faults += plan.armed_count();
    FabricFaultInjector injector(std::move(plan));

    const std::uint64_t a = random_operand(operand_rng, config.adder_bits);
    const std::uint64_t b = random_operand(operand_rng, config.adder_bits);
    std::uint64_t got = 0;
    if (crs_backend) {
      CrsFabric fabric(presets::crs_cell());
      fabric.attach_faults(&injector);
      got = add_integers(fabric, a, b, config.adder_bits);
    } else {
      IdealFabric fabric;
      fabric.attach_faults(&injector);
      got = add_integers(fabric, a, b, config.adder_bits);
    }
    tally.diff.add(got == ((a + b) & mask) ? DiffOutcome::kClean
                                           : DiffOutcome::kSilent);
  }
  return record_campaign(std::move(tally));
}

CampaignTally run_tc_adder_campaign(const CampaignConfig& config,
                                    double rate) {
  CampaignTally tally;
  tally.target = "tc_adder";
  tally.rate = rate;

  const std::uint64_t mask = (std::uint64_t{1} << config.adder_bits) - 1;
  Rng operand_rng(derive(config.seed, 0x7CADD, rate));
  for (std::size_t trial = 0; trial < config.adder_trials; ++trial) {
    PackedTcAdderFarm adder(1, config.adder_bits, presets::crs_cell());
    FaultPlan plan =
        FaultPlan::draw(adder.fault_sites(),
                        derive(config.seed, 0x7CADD, rate, trial),
                        stuck_specs(rate));
    tally.armed_faults += plan.armed_count();
    (void)apply_fault_plan(adder, plan);

    const std::uint64_t a = random_operand(operand_rng, config.adder_bits);
    const std::uint64_t b = random_operand(operand_rng, config.adder_bits);
    const PackedAddOutcome r = adder.run({a}, {b});
    const bool sum_ok = r.sums.front() == ((a + b) & mask);
    const bool carry_ok =
        adder.carry_out(0) == (((a + b) >> config.adder_bits) != 0);
    tally.diff.add(sum_ok && carry_ok ? DiffOutcome::kClean
                                      : DiffOutcome::kSilent);
  }
  return record_campaign(std::move(tally));
}

CampaignTally run_cam_campaign(const CampaignConfig& config, double rate) {
  CampaignTally tally;
  tally.target = "cam_search";
  tally.rate = rate;

  CamConfig cam_config;
  cam_config.rows = config.cam_rows;
  cam_config.word_bits = config.cam_bits;
  cam_config.cell = presets::crs_cell();
  CrsCam cam(cam_config);

  Rng rng(derive(config.seed, 0xCA3, rate));
  std::vector<std::vector<bool>> golden(config.cam_rows);
  for (std::size_t row = 0; row < config.cam_rows; ++row) {
    golden[row].resize(config.cam_bits);
    for (std::size_t bit = 0; bit < config.cam_bits; ++bit)
      golden[row][bit] = rng.bernoulli(0.5);
    cam.write_row(row, golden[row]);
  }

  FaultPlan plan = FaultPlan::draw(config.cam_rows * config.cam_bits,
                                   derive(config.seed, 0xCA3F, rate),
                                   stuck_specs(rate));
  tally.armed_faults = plan.armed_count();
  (void)apply_fault_plan(cam, plan);

  for (std::size_t s = 0; s < config.cam_searches; ++s) {
    // Alternate guaranteed-hit keys with random probes.
    std::vector<bool> key;
    if (s % 2 == 0) {
      key = golden[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(config.cam_rows - 1)))];
    } else {
      key.resize(config.cam_bits);
      for (std::size_t bit = 0; bit < config.cam_bits; ++bit)
        key[bit] = rng.bernoulli(0.5);
    }
    std::vector<std::size_t> expected;
    for (std::size_t row = 0; row < config.cam_rows; ++row)
      if (golden[row] == key) expected.push_back(row);
    const CamSearchResult got = cam.search(key);
    tally.diff.add(got.matching_rows == expected ? DiffOutcome::kClean
                                                 : DiffOutcome::kSilent);
  }
  return record_campaign(std::move(tally));
}

CampaignTally run_readout_campaign(const CampaignConfig& config, double rate) {
  CampaignTally tally;
  tally.target = "crossbar_readout";
  tally.rate = rate;

  const std::size_t n = config.readout_size;
  CrossbarConfig xbar_config;
  xbar_config.rows = n;
  xbar_config.cols = n;
  xbar_config.model = NetworkModel::kLumpedLines;
  const VcmDevice proto(presets::vcm_taox(), 0.0);
  CrossbarArray array(xbar_config, proto);

  ReadConfig read_config;
  read_config.scheme = BiasScheme::kGrounded;
  const ReadMeasurement reference =
      measure_read_margin(array, 0, 0, read_config);

  Rng rng(derive(config.seed, 0x2EAD, rate));
  std::vector<bool> intended(n * n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) {
      intended[r * n + c] = rng.bernoulli(0.5);
      array.store_bit(r, c, intended[r * n + c]);
    }

  std::vector<FaultSpec> specs = stuck_specs(rate);
  specs.push_back({FaultKind::kDrift, rate, 1.0, 0.6});
  FaultPlan plan =
      FaultPlan::draw(n * n, derive(config.seed, 0x2EADF, rate), specs);
  tally.armed_faults = plan.armed_count();
  (void)apply_fault_plan(array, plan);

  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) {
      const bool sensed = read_bit(array, r, c, read_config, reference);
      tally.diff.add(sensed == intended[r * n + c] ? DiffOutcome::kClean
                                                   : DiffOutcome::kSilent);
    }
  return record_campaign(std::move(tally));
}

CampaignTally run_dna_campaign(const CampaignConfig& config, double rate) {
  CampaignTally tally;
  tally.target = "dna_workload";
  tally.rate = rate;

  MEMCIM_CHECK_MSG(config.dna_bases > config.dna_k,
                   "genome shorter than the k-mer");
  Rng rng(derive(config.seed, 0xD7A, rate));
  const std::string genome = generate_genome(config.dna_bases, rng);
  const std::size_t windows = config.dna_bases - config.dna_k + 1;

  // The CIM side of the pipeline: every reference k-mer resident in
  // one CAM row, each read resolved by one parallel search.
  CamConfig cam_config;
  cam_config.rows = windows;
  cam_config.word_bits = 2 * config.dna_k;
  cam_config.cell = presets::crs_cell();
  CrsCam cam(cam_config);
  for (std::size_t pos = 0; pos < windows; ++pos)
    cam.write_row(pos, encode_kmer(genome, pos, config.dna_k));

  FaultPlan plan = FaultPlan::draw(windows * cam_config.word_bits,
                                   derive(config.seed, 0xD7AF, rate),
                                   stuck_specs(rate));
  tally.armed_faults = plan.armed_count();
  (void)apply_fault_plan(cam, plan);

  for (std::size_t i = 0; i < config.dna_reads; ++i) {
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(windows - 1)));
    const std::string read = genome.substr(pos, config.dna_k);
    // Golden model: exact string scan over the clean reference.
    std::vector<std::size_t> expected;
    for (std::size_t w = 0; w < windows; ++w)
      if (genome.compare(w, config.dna_k, read) == 0) expected.push_back(w);
    const CamSearchResult got = cam.search(encode_kmer(read, 0, read.size()));
    tally.diff.add(got.matching_rows == expected ? DiffOutcome::kClean
                                                 : DiffOutcome::kSilent);
  }
  return record_campaign(std::move(tally));
}

CampaignTally run_parallel_add_campaign(const CampaignConfig& config,
                                        double rate) {
  CampaignTally tally;
  tally.target = "parallel_add_workload";
  tally.rate = rate;

  ParallelAddParams params;
  params.operations = config.add_ops;
  params.width = config.add_width;
  params.adders = config.add_adders;

  FaultPlan plan = FaultPlan::draw(config.add_adders * (config.add_width + 2),
                                   derive(config.seed, 0xFA23, rate),
                                   stuck_specs(rate));
  tally.armed_faults = plan.armed_count();
  params.farm_hook = [&plan](PackedTcAdderFarm& farm) {
    (void)apply_fault_plan(farm, plan);
  };

  Rng rng(derive(config.seed, 0xFA23DA7A, rate));
  const ParallelAddResult result =
      run_parallel_add(params, presets::crs_cell(), rng);

  // run_parallel_add golden-checks every sum against native addition;
  // mismatches are exactly the silent corruptions of the faulty farm.
  for (std::uint64_t op = 0; op < result.sums.size(); ++op)
    tally.diff.add(op < result.mismatches ? DiffOutcome::kSilent
                                          : DiffOutcome::kClean);
  return record_campaign(std::move(tally));
}

CampaignTally run_noc_link_campaign(const CampaignConfig& config, double rate) {
  CampaignTally tally;
  tally.target = "noc_link";
  tally.rate = rate;

  NocParams params;
  params.flit_payload_bits = config.noc_payload_bits;
  MeshNoc noc(config.noc_mesh, config.noc_mesh, params);

  // The fault population is every wire of every directional link (edge
  // link ids are no-op targets, keeping the site space rectangular).
  const std::size_t wires = params.link_wires();
  FaultPlan plan = FaultPlan::draw(noc.link_population() * wires,
                                   derive(config.seed, 0x40CF, rate),
                                   stuck_specs(rate));
  tally.armed_faults = plan.armed_count();
  for (const ArmedFault& fault : plan.armed()) {
    const std::optional<bool> bit = plan.stuck_bit(fault.site);
    if (bit) noc.set_link_fault(fault.site / wires, fault.site % wires, *bit);
  }

  // Drive a deterministic random-pairs pattern; each delivery is one
  // trial.  Wire data derives from the fingerprint, so the fault-free
  // reference is implicit: corrupted_flits counts bits a stuck wire
  // changed, and the parity wire decides detected vs silent.
  Rng rng(derive(config.seed, 0x40C, rate));
  const auto node = [&] {
    return static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(noc.nodes() - 1)));
  };
  for (std::size_t p = 0; p < config.noc_packets; ++p) {
    NocPacket pkt;
    pkt.src = node();
    pkt.dst = node();
    pkt.flits = 2 + static_cast<std::size_t>(rng.uniform_int(0, 6));
    pkt.fingerprint = derive(config.seed, 0x40CF17, rate, p);
    (void)noc.inject(pkt);
  }
  noc.run_to_completion();

  for (const NocDelivery& d : noc.deliveries()) {
    if (!d.corrupted())
      tally.diff.add(DiffOutcome::kClean);
    else if (d.undetected_corrupted_flits == 0)
      tally.diff.add(DiffOutcome::kDetected);
    else
      tally.diff.add(DiffOutcome::kSilent);
  }
  return record_campaign(std::move(tally));
}

std::vector<CampaignTally> run_full_campaign(const CampaignConfig& config) {
  std::vector<CampaignTally> sweep;
  for (const double rate : config.rates) sweep.push_back(run_ecc_campaign(config, rate));
  for (const double rate : config.rates)
    sweep.push_back(run_imply_adder_campaign(config, rate, false));
  for (const double rate : config.rates)
    sweep.push_back(run_imply_adder_campaign(config, rate, true));
  for (const double rate : config.rates)
    sweep.push_back(run_tc_adder_campaign(config, rate));
  for (const double rate : config.rates) sweep.push_back(run_cam_campaign(config, rate));
  for (const double rate : config.rates)
    sweep.push_back(run_readout_campaign(config, rate));
  for (const double rate : config.rates) sweep.push_back(run_dna_campaign(config, rate));
  for (const double rate : config.rates)
    sweep.push_back(run_parallel_add_campaign(config, rate));
  for (const double rate : config.rates)
    sweep.push_back(run_noc_link_campaign(config, rate));
  return sweep;
}

std::string campaign_json(const CampaignConfig& config,
                          const std::vector<CampaignTally>& sweep,
                          const CampaignJsonExtra& extra) {
  std::uint64_t zero_rate_silent = 0;
  std::uint64_t single_injected = 0, single_corrected = 0;
  std::uint64_t double_injected = 0, double_detected = 0;
  for (const CampaignTally& t : sweep) {
    if (t.rate == 0.0) zero_rate_silent += t.diff.silent;
    single_injected += t.single_bit_injected;
    single_corrected += t.single_bit_corrected;
    double_injected += t.double_bit_injected;
    double_detected += t.double_bit_detected;
  }

  telemetry::JsonWriter w;
  w.begin_object();
  w.key("schema").value("memcim-bench-v1");
  w.key("bench").value("fault_campaign");
  if (extra) extra(w);
  w.key("seed").value(config.seed);
  w.key("rates").begin_array();
  for (const double rate : config.rates) w.value(rate);
  w.end_array();
  w.key("sweep").begin_array();
  for (const CampaignTally& t : sweep) {
    w.begin_object();
    w.key("target").value(t.target);
    w.key("rate").value(t.rate);
    w.key("trials").value(t.diff.trials);
    w.key("clean").value(t.diff.clean);
    w.key("corrected").value(t.diff.corrected);
    w.key("detected").value(t.diff.detected);
    w.key("silent").value(t.diff.silent);
    w.key("armed_faults").value(t.armed_faults);
    if (t.target == "ecc_memory") {
      w.key("single_bit").begin_object();
      w.key("injected").value(t.single_bit_injected);
      w.key("corrected").value(t.single_bit_corrected);
      w.end_object();
      w.key("double_bit").begin_object();
      w.key("injected").value(t.double_bit_injected);
      w.key("detected").value(t.double_bit_detected);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.key("acceptance").begin_object();
  w.key("zero_rate_silent").value(zero_rate_silent);
  w.key("ecc_single_bit").begin_object();
  w.key("injected").value(single_injected);
  w.key("corrected").value(single_corrected);
  w.end_object();
  w.key("ecc_double_bit").begin_object();
  w.key("injected").value(double_injected);
  w.key("detected").value(double_detected);
  w.end_object();
  w.key("pass").value(zero_rate_silent == 0 &&
                      single_injected == single_corrected &&
                      double_injected == double_detected);
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace memcim
