// Property-based coalescer/service tests: seeded mt19937_64 trace
// fuzzing (200+ iterations) of the serving invariants, with
// minimal-failing-prefix shrinking on violation — a failure reports
// the shortest request sequence that still breaks the property.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <sstream>

#include "serving/service.h"
#include "serving/trace_gen.h"
#include "support/trace_shrink.h"
#include "serving_test_util.h"

namespace memcim::serving {
namespace {

using testutil::SmallWorld;

constexpr std::size_t kIterations = 200;

struct FuzzCase {
  TraceParams trace;
  std::size_t queue_capacity = 256;
  VirtualNs window_timeout = 20'000;
};

FuzzCase draw_case(std::mt19937_64& meta, std::size_t max_requests) {
  FuzzCase fc;
  fc.trace = testutil::small_trace_params();
  fc.trace.seed = meta();
  fc.trace.requests = 1 + meta() % max_requests;
  fc.trace.mean_interarrival_ns = 20.0 + static_cast<double>(meta() % 2000);
  fc.queue_capacity = 4 + meta() % 128;
  fc.window_timeout = 100 + meta() % 40'000;
  return fc;
}

ServiceRunResult run_case(const FuzzCase& fc,
                          const std::vector<Request>& trace) {
  TileFabric fabric(testutil::small_fabric());
  const SmallWorld world;
  ServingConfig cfg = testutil::small_config();
  cfg.queue_capacity = fc.queue_capacity;
  cfg.coalescer.window_timeout = fc.window_timeout;
  WorkloadService svc(fabric, cfg, world.kmer_db, world.cam_rows);
  return svc.run(trace);
}

/// Assert `holds` on the full trace; on violation, shrink to the
/// minimal failing prefix and fail with it.
void check_with_shrinking(
    const std::vector<Request>& trace, std::size_t iteration,
    const std::function<bool(const std::vector<Request>&)>& holds) {
  if (holds(trace)) return;
  const auto minimal = minimal_failing_trace_prefix(trace, holds);
  ASSERT_TRUE(minimal.has_value());
  std::ostringstream os;
  for (std::size_t i = 0; i < *minimal; ++i)
    os << " #" << trace[i].id << ":" << to_string(trace[i].cls) << "@"
       << trace[i].arrival;
  FAIL() << "property violated at iteration " << iteration
         << "; minimal failing prefix (" << *minimal << " of " << trace.size()
         << " requests):" << os.str();
}

TEST(ServingProperty, EveryAdmittedRequestLandsInExactlyOneBatch) {
  std::mt19937_64 meta(0xA11CE);
  for (std::size_t iter = 0; iter < kIterations; ++iter) {
    const FuzzCase fc = draw_case(meta, 150);
    const std::vector<Request> trace = generate_trace(fc.trace);
    check_with_shrinking(trace, iter, [&](const std::vector<Request>& t) {
      const ServiceRunResult result = run_case(fc, t);
      std::set<std::uint64_t> responded;
      for (const Response& r : result.responses)
        if (!responded.insert(r.id).second) return false;  // duplicate
      std::set<std::uint64_t> shed;
      for (const ShedRecord& s : result.shed)
        if (!shed.insert(s.id).second) return false;
      // Disjoint, and together exactly the arrival set.
      if (responded.size() + shed.size() != t.size()) return false;
      for (const Request& req : t) {
        const bool in_resp = responded.count(req.id) != 0;
        const bool in_shed = shed.count(req.id) != 0;
        if (in_resp == in_shed) return false;
      }
      return true;
    });
  }
}

TEST(ServingProperty, BatchesNeverMixClassesNorExceedTheLaneLimit) {
  std::mt19937_64 meta(0xB0B);
  for (std::size_t iter = 0; iter < kIterations; ++iter) {
    const FuzzCase fc = draw_case(meta, 150);
    const std::vector<Request> trace = generate_trace(fc.trace);
    check_with_shrinking(trace, iter, [&](const std::vector<Request>& t) {
      const ServiceRunResult result = run_case(fc, t);
      struct Group {
        RequestClass cls{};
        std::uint32_t lanes = 0;
        VirtualNs dispatched = 0;
        std::size_t members = 0;
      };
      std::map<std::uint64_t, Group> batches;
      for (const Response& r : result.responses) {
        auto [it, fresh] = batches.try_emplace(r.batch_seq);
        if (fresh) {
          it->second = {r.cls, r.batch_lanes, r.dispatched, 0};
        } else if (it->second.cls != r.cls ||
                   it->second.lanes != r.batch_lanes ||
                   it->second.dispatched != r.dispatched) {
          return false;  // mixed class or inconsistent batch stamps
        }
        ++it->second.members;
      }
      for (const auto& [seq, g] : batches) {
        (void)seq;
        if (g.lanes == 0 || g.lanes > kPackedLanes) return false;
        if (g.members != g.lanes) return false;
      }
      return true;
    });
  }
}

TEST(ServingProperty, BatchedPayloadsEqualScalarReferenceBitwise) {
  std::mt19937_64 meta(0xFACADE);
  const SmallWorld world;
  for (std::size_t iter = 0; iter < kIterations; ++iter) {
    const FuzzCase fc = draw_case(meta, 40);
    const std::vector<Request> trace = generate_trace(fc.trace);
    check_with_shrinking(trace, iter, [&](const std::vector<Request>& t) {
      const ServiceRunResult batched = run_case(fc, t);
      const std::vector<Response> scalar = scalar_reference(
          testutil::small_fabric(), testutil::small_workload(), world.kmer_db,
          world.cam_rows, t);
      std::map<std::uint64_t, const Response*> golden;
      for (const Response& r : scalar) golden[r.id] = &r;
      // Every served response must equal its unbatched scalar run.
      for (const Response& r : batched.responses)
        if (!payload_equal(r, *golden.at(r.id))) return false;
      return true;
    });
  }
}

TEST(ServingProperty, ShrinkerReportsTheExactMinimalPrefix) {
  TraceParams params = testutil::small_trace_params();
  params.seed = 0x517;
  params.requests = 200;
  const std::vector<Request> trace = generate_trace(params);
  // Synthetic property: "the trace contains no CAM search".  The
  // minimal failing prefix is exactly the first CAM request's index+1.
  std::size_t first_cam = trace.size();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].cls == RequestClass::kCamSearch) {
      first_cam = i;
      break;
    }
  }
  ASSERT_LT(first_cam, trace.size());  // the mix makes one all but certain
  const auto minimal = minimal_failing_trace_prefix(
      trace, [](const std::vector<Request>& t) {
        return std::none_of(t.begin(), t.end(), [](const Request& r) {
          return r.cls == RequestClass::kCamSearch;
        });
      });
  ASSERT_TRUE(minimal.has_value());
  EXPECT_EQ(*minimal, first_cam + 1);
}

TEST(ServingProperty, ShrinkerReturnsNulloptWhenThePropertyHolds) {
  TraceParams params = testutil::small_trace_params();
  params.requests = 50;
  const std::vector<Request> trace = generate_trace(params);
  const auto minimal = minimal_failing_trace_prefix(
      trace, [](const std::vector<Request>&) { return true; });
  EXPECT_FALSE(minimal.has_value());
}

}  // namespace
}  // namespace memcim::serving
