// TimeSeriesSampler against the real serving stack: interval
// partitioning, exact per-interval sums, ring eviction accounting,
// SLO wiring, the kill switch, and instant events on the trace
// timeline.
#include "monitor/sampler.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "../serving/serving_test_util.h"
#include "common/error.h"
#include "monitor/slo.h"
#include "telemetry/trace_export.h"

namespace memcim::monitor {
namespace {

using serving::Request;
using serving::ServiceRunResult;
using serving::ServingConfig;
using serving::TraceParams;
using serving::WorkloadService;
namespace testutil = serving::testutil;

ServiceRunResult run_sampled(serving::ServiceProbe* probe,
                             std::size_t requests = 2000,
                             double mean_gap_ns = 200.0,
                             std::size_t queue_capacity = 256) {
  TileFabric fabric(testutil::small_fabric());
  const testutil::SmallWorld world;
  ServingConfig cfg = testutil::small_config();
  cfg.queue_capacity = queue_capacity;
  WorkloadService svc(fabric, cfg, world.kmer_db, world.cam_rows);
  svc.set_probe(probe);
  TraceParams params = testutil::small_trace_params();
  params.seed = 0x5A11;
  params.requests = requests;
  params.mean_interarrival_ns = mean_gap_ns;
  return svc.run(serving::generate_trace(params));
}

TEST(TimeSeriesSampler, IntervalsPartitionTheRunExactly) {
  telemetry::set_enabled(true);
  TimeSeriesSampler sampler({10'000, 4096});
  const ServiceRunResult result = run_sampled(&sampler);

  ASSERT_FALSE(sampler.samples().empty());
  EXPECT_EQ(sampler.dropped(), 0u);
  EXPECT_EQ(sampler.total_intervals(), sampler.samples().size());

  // Contiguous [begin, end) intervals from virtual 0, period-spaced
  // except the final partial one.
  std::uint64_t expect_begin = 0;
  std::uint64_t arrivals = 0, shed = 0, completed = 0, batches = 0;
  for (const Sample& s : sampler.samples()) {
    EXPECT_EQ(s.begin, expect_begin);
    EXPECT_GT(s.end, s.begin);
    EXPECT_LE(s.end - s.begin, 10'000u);
    expect_begin = s.end;
    arrivals += s.arrivals;
    shed += s.shed;
    completed += s.completed;
    batches += s.batches;
    std::uint64_t class_completed = 0;
    for (const Sample::PerClass& pc : s.classes) class_completed += pc.completed;
    EXPECT_EQ(class_completed, s.completed);
  }
  // The series sums reproduce the run totals exactly — no sample lost
  // to boundary arithmetic.
  EXPECT_EQ(arrivals, result.stats.arrivals());
  EXPECT_EQ(shed, result.stats.shed());
  EXPECT_EQ(completed, result.stats.completed());
  EXPECT_EQ(batches, result.stats.batches);
  EXPECT_GE(sampler.samples().back().end, result.stats.makespan);
}

TEST(TimeSeriesSampler, IntervalCountsMatchTheTrace) {
  // Every sample's counts, recounted from what the run returned: an
  // arrival and its admission or shed at its arrival instant, a
  // completion and its batch at the dispatch instant.  A count booked in
  // the wrong interval shows here even when the run's sums are right.
  telemetry::set_enabled(true);
  TileFabric fabric(testutil::small_fabric());
  const testutil::SmallWorld world;
  ServingConfig cfg = testutil::small_config();
  cfg.queue_capacity = 12;
  WorkloadService svc(fabric, cfg, world.kmer_db, world.cam_rows);
  TimeSeriesSampler sampler({2'000, 4096});
  svc.set_probe(&sampler);
  TraceParams params = testutil::small_trace_params();
  params.seed = 0x1E7A;
  params.requests = 3000;
  params.mean_interarrival_ns = 25.0;  // hot enough to shed
  params.class_weights = {0.3, 0.3, 0.4};
  const std::vector<Request> trace = serving::generate_trace(params);
  const ServiceRunResult result = svc.run(trace);
  ASSERT_FALSE(result.shed.empty());
  ASSERT_EQ(sampler.dropped(), 0u);
  ASSERT_GT(sampler.samples().size(), 10u);

  for (const Sample& s : sampler.samples()) {
    const auto in = [&s](VirtualNs at) { return at >= s.begin && at < s.end; };
    std::array<std::uint64_t, serving::kRequestClasses> arrivals{}, shed{},
        completed{};
    for (const Request& r : trace)
      if (in(r.arrival)) ++arrivals[static_cast<std::size_t>(r.cls)];
    for (const serving::ShedRecord& r : result.shed)
      if (in(r.at)) ++shed[static_cast<std::size_t>(r.cls)];
    std::uint64_t batches = 0;
    std::uint64_t last_seq = ~std::uint64_t{0};
    for (const serving::Response& r : result.responses) {
      if (!in(r.dispatched)) continue;
      ++completed[static_cast<std::size_t>(r.cls)];
      if (r.batch_seq != last_seq) ++batches;
      last_seq = r.batch_seq;
    }
    std::uint64_t total_arrivals = 0, total_shed = 0, total_completed = 0;
    for (std::size_t c = 0; c < serving::kRequestClasses; ++c) {
      const Sample::PerClass& pc = s.classes[c];
      EXPECT_EQ(pc.admitted, arrivals[c] - shed[c])
          << "interval " << s.interval << " class " << c;
      EXPECT_EQ(pc.shed, shed[c]) << "interval " << s.interval << " class "
                                  << c;
      EXPECT_EQ(pc.completed, completed[c])
          << "interval " << s.interval << " class " << c;
      total_arrivals += arrivals[c];
      total_shed += shed[c];
      total_completed += completed[c];
    }
    EXPECT_EQ(s.arrivals, total_arrivals) << "interval " << s.interval;
    EXPECT_EQ(s.admitted, total_arrivals - total_shed)
        << "interval " << s.interval;
    EXPECT_EQ(s.shed, total_shed) << "interval " << s.interval;
    EXPECT_EQ(s.completed, total_completed) << "interval " << s.interval;
    EXPECT_EQ(s.batches, batches) << "interval " << s.interval;
  }
}

TEST(TimeSeriesSampler, IntervalQuantilesAreIntervalLocal) {
  telemetry::set_enabled(true);
  TimeSeriesSampler sampler({10'000, 4096});
  run_sampled(&sampler);
  bool saw_quantile = false;
  for (const Sample& s : sampler.samples()) {
    for (const Sample::PerClass& pc : s.classes) {
      if (pc.completed == 0) {
        EXPECT_EQ(pc.p50_ns, 0.0);
        continue;
      }
      saw_quantile = true;
      EXPECT_GT(pc.p50_ns, 0.0);
      EXPECT_LE(pc.p50_ns, pc.p99_ns);
      EXPECT_LE(pc.p95_ns, pc.p99_ns);
    }
  }
  EXPECT_TRUE(saw_quantile);
}

TEST(TimeSeriesSampler, RingEvictsOldestAndCountsDrops) {
  telemetry::set_enabled(true);
  TimeSeriesSampler sampler({5'000, 4});
  run_sampled(&sampler);
  ASSERT_GT(sampler.total_intervals(), 4u);
  EXPECT_EQ(sampler.samples().size(), 4u);
  EXPECT_EQ(sampler.dropped(), sampler.total_intervals() - 4u);
  // Survivors are the newest intervals, indices intact.
  EXPECT_EQ(sampler.samples().back().interval, sampler.total_intervals() - 1);
}

TEST(TimeSeriesSampler, DisabledTelemetryRecordsNothing) {
  telemetry::set_enabled(false);
  TimeSeriesSampler sampler({10'000, 4096});
  run_sampled(&sampler);
  telemetry::set_enabled(true);
  EXPECT_TRUE(sampler.samples().empty());
  EXPECT_EQ(sampler.total_intervals(), 0u);
}

TEST(TimeSeriesSampler, OverloadDrivesSloAlertsAndInstantEvents) {
  telemetry::set_enabled(true);
  telemetry::start_tracing();
  SloEngine engine(default_serving_slos(8));
  TimeSeriesSampler sampler({2'000, 4096}, &engine);
  // 10x the arrival rate into a tiny queue: mass shedding.
  run_sampled(&sampler, 4000, 20.0, 8);
  telemetry::stop_tracing();

  EXPECT_GT(engine.alerts_fired(), 0u);
  bool burn = false;
  for (const HealthEvent& e : engine.events())
    burn = burn || e.kind == HealthEventKind::kBurnRateAlert;
  EXPECT_TRUE(burn);

  // Every health event landed on the trace timeline as an instant.
  std::size_t instants = 0;
  for (const telemetry::TraceEvent& e : telemetry::collected_trace())
    if (e.phase == 'i') ++instants;
  EXPECT_EQ(instants, engine.events().size());
}

TEST(TimeSeriesSampler, HealthyRunStaysGreen) {
  telemetry::set_enabled(true);
  SloEngine engine(default_serving_slos(256));
  TimeSeriesSampler sampler({10'000, 4096}, &engine);
  run_sampled(&sampler);
  EXPECT_EQ(engine.alerts_fired(), 0u);
}

TEST(TimeSeriesSampler, RegistersNothingAndReadsCountersThatAppearMidRun) {
  telemetry::set_enabled(true);
  const telemetry::Registry& registry = telemetry::Registry::global();
  // Earlier tests of this process may have registered these; the
  // sampler itself must register none of them.
  const bool had_flits = registry.find_counter("serving.flits") != nullptr;
  const bool had_latency =
      registry.find_histogram("serving.latency_ns.kmer") != nullptr;
  TimeSeriesSampler sampler({1'000, 16});
  const serving::ProbeState state;
  sampler.on_run_start(state);
  sampler.on_sample(1'000, state);
  EXPECT_EQ(registry.find_counter("serving.flits") != nullptr, had_flits);
  EXPECT_EQ(registry.find_histogram("serving.latency_ns.kmer") != nullptr,
            had_latency);

  // A counter registered (or moved) after the run started counts from
  // its value at the last boundary.
  telemetry::Registry::global().counter("serving.flits").add(7);
  sampler.on_sample(2'000, state);
  sampler.on_run_end(2'500, state);
  ASSERT_EQ(sampler.samples().size(), 3u);
  EXPECT_EQ(sampler.samples()[0].flits, 0u);
  EXPECT_EQ(sampler.samples()[1].flits, 7u);
  EXPECT_EQ(sampler.samples()[2].flits, 0u);
}

TEST(TimeSeriesSampler, ACounterGoingBackwardsThrows) {
  telemetry::set_enabled(true);
  telemetry::Registry& registry = telemetry::Registry::global();
  registry.counter("serving.arrivals").add(3);
  TimeSeriesSampler sampler({1'000, 16});
  const serving::ProbeState state;
  sampler.on_run_start(state);
  // Zeroes every metric: arrivals now reads below its value at the
  // run's start, which no interval can explain.
  registry.reset();
  EXPECT_THROW(sampler.on_sample(1'000, state), Error);
}

TEST(TimeSeriesSampler, RejectsDegenerateConfig) {
  EXPECT_THROW(TimeSeriesSampler({0, 16}), Error);
  EXPECT_THROW(TimeSeriesSampler({1000, 0}), Error);
}

}  // namespace
}  // namespace memcim::monitor
