// Causal trace propagation: spans form parent/child trees under one
// trace id, contexts follow work across the thread pool and onto NoC
// packets (for every FabricSession shape: the three sharded workloads
// and a serving window of each class), and the Chrome-trace export
// carries tile process metadata plus flow arrows for
// cross-thread/cross-tile dispatch edges.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "arch/tile_fabric.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "device/presets.h"
#include "serving/dispatcher.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_export.h"
#include "support/sharded_cam_bank.h"
#include "workloads/sharded.h"

namespace memcim {
namespace {

struct StateGuard {
  std::size_t threads = parallel_threads();
  ~StateGuard() {
    telemetry::stop_tracing();
    telemetry::set_enabled(true);
    set_parallel_threads(threads);
  }
};

std::vector<telemetry::TraceEvent> events_named(
    const std::vector<telemetry::TraceEvent>& events, std::string_view name) {
  std::vector<telemetry::TraceEvent> out;
  for (const telemetry::TraceEvent& e : events)
    if (*e.name == name) out.push_back(e);
  return out;
}

TEST(TraceContext, RootContextAndSpanIdsAreUnique) {
  StateGuard guard;
  telemetry::set_enabled(true);
  const telemetry::TraceContext a = telemetry::new_root_context();
  const telemetry::TraceContext b = telemetry::new_root_context();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_NE(a.trace_id, b.trace_id);
  EXPECT_EQ(a.span_id, 0u);
  EXPECT_NE(telemetry::new_span_id(), telemetry::new_span_id());
}

TEST(TraceContext, DisabledTelemetryYieldsNoContext) {
  StateGuard guard;
  telemetry::set_enabled(false);
  EXPECT_FALSE(telemetry::new_root_context().valid());
  EXPECT_FALSE(telemetry::current_trace_context().valid());
}

TEST(TraceContext, ScopeInstallsAndRestores) {
  StateGuard guard;
  telemetry::set_enabled(true);
  const telemetry::TraceContext before = telemetry::current_trace_context();
  const telemetry::TraceContext root = telemetry::new_root_context();
  {
    const telemetry::TraceContextScope scope(root);
    EXPECT_EQ(telemetry::current_trace_context().trace_id, root.trace_id);
  }
  EXPECT_EQ(telemetry::current_trace_context().trace_id, before.trace_id);
}

TEST(TraceContext, NestedSpansFormAParentChildTree) {
  StateGuard guard;
  telemetry::set_enabled(true);
  static telemetry::SpanSite outer_site("test.ctx.outer");
  static telemetry::SpanSite inner_site("test.ctx.inner");

  telemetry::start_tracing();
  {
    const telemetry::TraceContextScope root(telemetry::new_root_context());
    telemetry::Span outer(outer_site);
    telemetry::Span inner(inner_site);
  }
  telemetry::stop_tracing();

  const std::vector<telemetry::TraceEvent> events =
      telemetry::collected_trace();
  const auto outer_events = events_named(events, "test.ctx.outer");
  const auto inner_events = events_named(events, "test.ctx.inner");
  ASSERT_EQ(outer_events.size(), 1u);
  ASSERT_EQ(inner_events.size(), 1u);
  EXPECT_NE(outer_events[0].trace_id, 0u);
  EXPECT_EQ(outer_events[0].trace_id, inner_events[0].trace_id);
  EXPECT_EQ(outer_events[0].parent_span, 0u);  // root span of the trace
  EXPECT_NE(outer_events[0].span_id, 0u);
  EXPECT_EQ(inner_events[0].parent_span, outer_events[0].span_id);
  EXPECT_NE(inner_events[0].span_id, outer_events[0].span_id);
}

TEST(TraceContext, PropagatesAcrossThreadPoolWorkers) {
  StateGuard guard;
  telemetry::set_enabled(true);
  set_parallel_threads(4);
  static telemetry::SpanSite dispatch_site("test.ctx.dispatch");
  static telemetry::SpanSite worker_site("test.ctx.worker");

  telemetry::start_tracing();
  {
    const telemetry::TraceContextScope root(telemetry::new_root_context());
    telemetry::Span dispatch(dispatch_site);
    parallel_for(0, 8, 1, [&](std::size_t) {
      telemetry::Span work(worker_site);
    });
  }
  telemetry::stop_tracing();

  const std::vector<telemetry::TraceEvent> events =
      telemetry::collected_trace();
  const auto dispatch_events = events_named(events, "test.ctx.dispatch");
  const auto worker_events = events_named(events, "test.ctx.worker");
  ASSERT_EQ(dispatch_events.size(), 1u);
  ASSERT_EQ(worker_events.size(), 8u);
  for (const telemetry::TraceEvent& e : worker_events) {
    EXPECT_EQ(e.trace_id, dispatch_events[0].trace_id);
    EXPECT_EQ(e.parent_span, dispatch_events[0].span_id);
  }
}

TileFabricConfig small_fabric() {
  TileFabricConfig cfg;
  cfg.width = 2;
  cfg.height = 2;
  cfg.tile.rows = 4;
  cfg.tile.row_bits = 16;
  cfg.tile.cell = presets::crs_cell();
  return cfg;
}

std::vector<bool> bits_of(std::uint64_t v, std::size_t n) {
  std::vector<bool> bits(n);
  for (std::size_t i = 0; i < n; ++i) bits[i] = (v >> i) & 1u;
  return bits;
}

/// 16 distinct 16-bit words: the k-mer database, CAM rows and keys.
std::vector<std::vector<bool>> words16() {
  std::vector<std::vector<bool>> words;
  for (std::uint64_t r = 0; r < 16; ++r)
    words.push_back(bits_of(r * 2654435761u, 16));
  return words;
}

/// Each runner drives one fabric session and returns its trace id.
std::uint64_t run_sharded_add(TileFabric& fabric) {
  ParallelAddParams params;
  params.operations = 64;
  params.width = 16;
  params.adders = 16;
  Rng rng(11);
  return sharded_parallel_add(fabric, params, presets::crs_cell(), rng)
      .run.trace_id;
}

std::uint64_t run_kmer_search(TileFabric& fabric) {
  const std::vector<std::vector<bool>> db = words16();
  return sharded_kmer_search(fabric, db, {db[3], db[9]}).run.trace_id;
}

std::uint64_t run_cam_bank(TileFabric& fabric) {
  CamConfig per_tile;
  per_tile.rows = 4;
  per_tile.word_bits = 16;
  per_tile.cell = presets::crs_cell();
  ShardedCamBank bank(fabric, per_tile);
  const std::vector<std::vector<bool>> words = words16();
  for (std::size_t r = 0; r < bank.rows(); ++r) bank.write_row(r, words[r]);
  return bank.search(words[6]).run.trace_id;
}

std::uint64_t run_serving_window(TileFabric& fabric, serving::RequestClass cls,
                                 std::size_t lanes) {
  serving::ServingWorkloadConfig workload;
  workload.add_width = 16;
  workload.adders_per_tile = 4;
  workload.cam.rows = 4;
  workload.cam.word_bits = 16;
  workload.cam.cell = presets::crs_cell();
  const std::vector<std::vector<bool>> words = words16();
  serving::BatchDispatcher dispatcher(fabric, workload, words, words);
  const telemetry::TraceContext root = telemetry::new_root_context();
  serving::Batch batch;
  batch.cls = cls;
  for (std::size_t i = 0; i < lanes; ++i) {
    serving::Request r;
    r.cls = cls;
    r.id = i;
    r.add_a = i;
    r.add_b = 3 * i;
    r.key = words[5 * i];
    r.trace = root;
    batch.requests.push_back(r);
  }
  (void)dispatcher.execute(batch);
  return root.trace_id;
}

std::uint64_t run_serving_kmer(TileFabric& fabric) {
  return run_serving_window(fabric, serving::RequestClass::kKmerQuery, 2);
}

std::uint64_t run_serving_cam(TileFabric& fabric) {
  return run_serving_window(fabric, serving::RequestClass::kCamSearch, 2);
}

/// Fewer ops than one tile's adders_per_tile: a single shard.
std::uint64_t run_serving_add(TileFabric& fabric) {
  return run_serving_window(fabric, serving::RequestClass::kAddition, 3);
}

/// One traced FabricSession shape and the span tree it must leave.
struct SessionCase {
  const char* name;
  const char* dispatch_site;  ///< the span commands parent under
  const char* compute_site;   ///< the per-tile span of completions
  std::size_t compute_spans;  ///< tiles with work
  std::size_t round_trips;
  std::uint64_t (*run)(TileFabric& fabric);
};

// Name cases by label; gtest's default byte dump would print pointers.
void PrintTo(const SessionCase& c, std::ostream* os) { *os << c.name; }

class SessionTraceTree : public ::testing::TestWithParam<SessionCase> {};

TEST_P(SessionTraceTree, PacketSpansParentUnderTheirSessionSpans) {
  const SessionCase& c = GetParam();
  StateGuard guard;
  telemetry::set_enabled(true);
  TileFabric fabric(small_fabric());
  telemetry::Registry& reg = telemetry::Registry::global();
  reg.counter("trace.noc_packets").reset();
  telemetry::Counter& compute_calls =
      reg.counter(std::string(c.compute_site) + ".calls");
  const std::uint64_t calls_before = compute_calls.value();

  telemetry::start_tracing();
  const std::uint64_t trace_id = c.run(fabric);
  telemetry::stop_tracing();
  ASSERT_NE(trace_id, 0u);

  const std::vector<telemetry::TraceEvent> events =
      telemetry::collected_trace();
  const auto dispatch = events_named(events, c.dispatch_site);
  ASSERT_EQ(dispatch.size(), 1u);
  EXPECT_EQ(dispatch[0].trace_id, trace_id);

  // Exactly one compute span per tile with work, under the dispatcher.
  const auto compute = events_named(events, c.compute_site);
  ASSERT_EQ(compute.size(), c.compute_spans);
  EXPECT_EQ(compute_calls.value() - calls_before, c.compute_spans);
  std::map<std::uint64_t, std::uint32_t> compute_tile;  // span id → tile
  std::set<std::uint32_t> tiles;
  for (const telemetry::TraceEvent& e : compute) {
    EXPECT_EQ(e.trace_id, trace_id);
    EXPECT_EQ(e.parent_span, dispatch[0].span_id);
    compute_tile[e.span_id] = e.tile;
    tiles.insert(e.tile);
  }
  EXPECT_EQ(tiles.size(), c.compute_spans);

  // One noc.packet span per packet: commands (even tags) under the
  // dispatching span, each completion under its own tile's compute span.
  const auto packets = events_named(events, "noc.packet");
  const std::vector<NocDelivery>& deliveries = fabric.noc().deliveries();
  ASSERT_EQ(deliveries.size(), 2 * c.round_trips);
  ASSERT_EQ(packets.size(), 2 * c.round_trips);
  EXPECT_EQ(reg.counter("trace.noc_packets").value(), 2 * c.round_trips);
  for (const NocDelivery& d : deliveries) {
    const auto span = std::find_if(
        packets.begin(), packets.end(),
        [&](const telemetry::TraceEvent& e) { return e.span_id == d.span_id; });
    ASSERT_NE(span, packets.end());
    EXPECT_EQ(span->trace_id, trace_id);
    if (d.tag % 2 == 0) {
      EXPECT_EQ(span->parent_span, dispatch[0].span_id);
    } else {
      ASSERT_TRUE(compute_tile.contains(span->parent_span));
      EXPECT_EQ(compute_tile[span->parent_span], d.src);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FabricSessions, SessionTraceTree,
    ::testing::Values(
        SessionCase{"sharded_add", "workload.sharded_add",
                    "workload.shard_compute", 4, 4, run_sharded_add},
        SessionCase{"sharded_kmer_search", "workload.sharded_search",
                    "workload.shard_compute", 4, 8, run_kmer_search},
        SessionCase{"sharded_cam_bank", "workload.sharded_cam",
                    "workload.shard_compute", 4, 4, run_cam_bank},
        SessionCase{"serving_kmer", "serving.dispatch",
                    "serving.shard_compute", 4, 4, run_serving_kmer},
        SessionCase{"serving_cam", "serving.dispatch",
                    "serving.shard_compute", 4, 4, run_serving_cam},
        SessionCase{"serving_add", "serving.dispatch",
                    "serving.shard_compute", 1, 1, run_serving_add}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

TEST(ChromeTraceExport, EmitsTileProcessMetadataAndFlowArrows) {
  StateGuard guard;
  telemetry::set_enabled(true);
  TileFabric fabric(small_fabric());  // registers tile labels
  ParallelAddParams params;
  params.operations = 64;
  params.width = 16;
  params.adders = 16;
  Rng rng(5);

  telemetry::start_tracing();
  const ShardedAddResult out =
      sharded_parallel_add(fabric, params, presets::crs_cell(), rng);
  telemetry::stop_tracing();
  ASSERT_NE(out.run.trace_id, 0u);

  const std::string json =
      telemetry::chrome_trace_json(telemetry::collected_trace());
  // Process metadata: the host plus the tile coordinates.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"host\""), std::string::npos);
  EXPECT_NE(json.find("tile (0,0)"), std::string::npos);
  EXPECT_NE(json.find("tile (1,1)"), std::string::npos);
  // Thread metadata names every worker lane.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("worker "), std::string::npos);
  // Cross-pid parent/child edges export as s/f flow pairs.
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(json.find("memcim.flow"), std::string::npos);
  // Span args carry the tree coordinates.
  EXPECT_NE(json.find("\"trace_id\""), std::string::npos);
  EXPECT_NE(json.find("\"parent_span\""), std::string::npos);
}

}  // namespace
}  // namespace memcim
