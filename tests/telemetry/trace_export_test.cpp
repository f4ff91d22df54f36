// Trace-session and exporter tests: span aggregates, well-formed
// nesting under concurrent workers, Chrome trace JSON, the metrics
// JSON/CSV exporters (tests/support/metrics_export.h), and the
// JsonWriter primitive they share.
#include "telemetry/trace_export.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "support/metrics_export.h"
#include "telemetry/json_writer.h"
#include "telemetry/telemetry.h"

namespace memcim {
namespace {

using telemetry::Registry;

struct StateGuard {
  std::size_t threads = parallel_threads();
  ~StateGuard() {
    telemetry::stop_tracing();
    telemetry::set_enabled(true);
    set_parallel_threads(threads);
  }
};

TEST(Span, FeedsCallAndTimeAggregates) {
  StateGuard guard;
  telemetry::set_enabled(true);
  static telemetry::SpanSite site("test.span.aggregate");
  telemetry::Counter& calls =
      Registry::global().counter("test.span.aggregate.calls");
  calls.reset();
  for (int i = 0; i < 5; ++i) telemetry::Span span(site);
  EXPECT_EQ(calls.value(), 5u);
}

TEST(Span, DisabledSpansAreInvisible) {
  StateGuard guard;
  static telemetry::SpanSite site("test.span.disabled");
  telemetry::Counter& calls =
      Registry::global().counter("test.span.disabled.calls");
  calls.reset();
  telemetry::set_enabled(false);
  { telemetry::Span span(site); }
  EXPECT_EQ(calls.value(), 0u);
}

TEST(TraceSession, CollectsEveryClosedSpan) {
  StateGuard guard;
  telemetry::set_enabled(true);
  static telemetry::SpanSite site("test.trace.simple");
  telemetry::start_tracing();
  for (int i = 0; i < 3; ++i) telemetry::Span span(site);
  telemetry::stop_tracing();
  const std::vector<telemetry::TraceEvent> events =
      telemetry::collected_trace();
  std::size_t ours = 0;
  for (const telemetry::TraceEvent& e : events)
    if (*e.name == "test.trace.simple") ++ours;
  EXPECT_EQ(ours, 3u);
  // A new session clears the buffer.
  telemetry::start_tracing();
  telemetry::stop_tracing();
  EXPECT_TRUE(telemetry::collected_trace().empty());
}

TEST(TraceSession, NestingIsWellFormedUnderConcurrentWorkers) {
  StateGuard guard;
  telemetry::set_enabled(true);
  set_parallel_threads(4);
  static telemetry::SpanSite outer_site("test.trace.outer");
  static telemetry::SpanSite inner_site("test.trace.inner");

  telemetry::start_tracing();
  parallel_for(0, 64, 4, [](std::size_t) {
    telemetry::Span outer(outer_site);
    for (int j = 0; j < 3; ++j) telemetry::Span inner(inner_site);
  });
  telemetry::stop_tracing();

  const std::vector<telemetry::TraceEvent> events =
      telemetry::collected_trace();
  std::size_t outers = 0, inners = 0;
  for (const telemetry::TraceEvent& e : events) {
    if (*e.name == "test.trace.outer") ++outers;
    if (*e.name == "test.trace.inner") ++inners;
  }
  EXPECT_EQ(outers, 64u);
  EXPECT_EQ(inners, 192u);

  // Per thread, events must nest like balanced brackets: each event
  // lies entirely within its enclosing span and its recorded depth is
  // exactly the number of open ancestors.  collected_trace() sorts by
  // (tid, ts_ns, depth), so a parent precedes its children.
  std::map<std::uint32_t, std::vector<telemetry::TraceEvent>> by_tid;
  for (const telemetry::TraceEvent& e : events) by_tid[e.tid].push_back(e);
  for (const auto& [tid, thread_events] : by_tid) {
    std::vector<telemetry::TraceEvent> stack;
    for (const telemetry::TraceEvent& e : thread_events) {
      while (!stack.empty() &&
             stack.back().ts_ns + stack.back().dur_ns <= e.ts_ns)
        stack.pop_back();
      if (!stack.empty()) {
        EXPECT_GE(e.ts_ns, stack.back().ts_ns);
        EXPECT_LE(e.ts_ns + e.dur_ns,
                  stack.back().ts_ns + stack.back().dur_ns)
            << "span escapes its parent on tid " << tid;
      }
      EXPECT_EQ(e.depth, stack.size()) << "depth mismatch on tid " << tid;
      stack.push_back(e);
    }
  }
}

TEST(ChromeTrace, ExportsCompleteEventsPerfettoCanLoad) {
  StateGuard guard;
  telemetry::set_enabled(true);
  static telemetry::SpanSite site("test.trace.export");
  telemetry::start_tracing();
  { telemetry::Span span(site); }
  telemetry::stop_tracing();

  const std::string js =
      telemetry::chrome_trace_json(telemetry::collected_trace());
  EXPECT_NE(js.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(js.find("\"test.trace.export\""), std::string::npos);
  EXPECT_NE(js.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(js.find("\"displayTimeUnit\": \"ns\""), std::string::npos);
  // Balanced braces — the document parses as one JSON object.
  EXPECT_EQ(std::count(js.begin(), js.end(), '{'),
            std::count(js.begin(), js.end(), '}'));
}

TEST(MetricsExport, JsonAndCsvCarryTheSnapshot) {
  StateGuard guard;
  telemetry::set_enabled(true);
  Registry::global().counter("test.export.counter").reset();
  Registry::global().counter("test.export.counter").add(42);
  telemetry::Histogram& h =
      Registry::global().histogram("test.export.hist", {1.0, 2.0});
  h.reset();
  h.record(1.5);

  const telemetry::MetricsSnapshot snap = Registry::global().snapshot();
  const std::string js = telemetry::metrics_json(snap);
  EXPECT_NE(js.find("\"counters\""), std::string::npos);
  EXPECT_NE(js.find("\"test.export.counter\": 42"), std::string::npos);
  EXPECT_NE(js.find("\"test.export.hist\""), std::string::npos);

  const std::string csv = telemetry::metrics_csv(snap);
  EXPECT_NE(csv.find("counter,test.export.counter,42"), std::string::npos);
  EXPECT_NE(csv.find("test.export.hist"), std::string::npos);
}

TEST(JsonWriterTest, ProducesExactPrettyJson) {
  telemetry::JsonWriter w;
  w.begin_object();
  w.key("name").value("memcim");
  w.key("rate").value(0.001);
  w.key("ok").value(true);
  w.key("list").begin_array();
  w.value(std::uint64_t{1});
  w.value(std::uint64_t{2});
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"name\": \"memcim\",\n"
            "  \"rate\": 0.001,\n"
            "  \"ok\": true,\n"
            "  \"list\": [\n"
            "    1,\n"
            "    2\n"
            "  ]\n"
            "}\n");
}

TEST(JsonWriterTest, EscapesStringsAndRejectsNonFinite) {
  telemetry::JsonWriter w;
  w.begin_object();
  w.key("s").value("a\"b\\c\nd");
  w.key("inf").value(std::numeric_limits<double>::infinity());
  w.end_object();
  const std::string js = w.str();
  EXPECT_NE(js.find("\"a\\\"b\\\\c\\nd\""), std::string::npos);
  EXPECT_NE(js.find("\"inf\": null"), std::string::npos);
}

}  // namespace
}  // namespace memcim
