// Trace sessions and exporters for the telemetry subsystem.
//
// A trace session records every Span that closes between
// start_tracing() and stop_tracing() as a complete ("ph":"X") event.
// The collected events export as Chrome trace JSON — load the file at
// https://ui.perfetto.dev (or chrome://tracing) to see the solver,
// thread-pool and workload spans on a per-thread timeline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/telemetry.h"

namespace memcim::telemetry {

/// One completed span.  `name` points at the SpanSite's name (static
/// lifetime); `tid` is a dense per-process thread index assigned on
/// first use, `depth` the span nesting level at entry (0 = top level).
/// Trace-tree coordinates: `trace_id`/`span_id`/`parent_span` are 0
/// when the span ran outside any trace context; `tile` is kNoTile for
/// host-side work.
struct TraceEvent {
  const std::string* name = nullptr;
  std::uint64_t ts_ns = 0;   ///< start, relative to the telemetry epoch
  std::uint64_t dur_ns = 0;  ///< wall-clock duration
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;
  std::uint32_t tile = kNoTile;
  /// Chrome-trace phase: 'X' (complete span) or 'i' (instant event —
  /// health alerts and other zero-duration markers).  Last member so
  /// the span-closing brace initialisers stay valid.
  char phase = 'X';
};

/// Append a fully-formed event to the calling thread's trace buffer —
/// for synthesised spans that have no RAII Span object (the mesh NoC
/// emits one per delivered packet on the virtual-time axis).  `name`
/// must have static lifetime.  No-op unless enabled() && tracing().
void emit_trace_event(const std::string* name, std::uint64_t ts_ns,
                      std::uint64_t dur_ns, std::uint64_t trace_id,
                      std::uint64_t span_id, std::uint64_t parent_span,
                      std::uint32_t tile);

/// Append a zero-duration instant event ("ph":"i", global scope) —
/// the monitoring plane stamps health alerts onto the timeline with
/// these.  `name` must have static lifetime.  No-op unless
/// enabled() && tracing().
void emit_instant_event(const std::string* name, std::uint64_t ts_ns,
                        std::uint64_t trace_id, std::uint32_t tile);

/// Register a human-readable label for a tile id ("tile (1,2)") —
/// exported as a Chrome-trace process_name metadata event so Perfetto
/// groups spans by tile instead of raw pids.  TileFabric registers
/// every tile on construction.
void set_tile_trace_label(std::uint32_t tile, std::string label);

/// Begin a trace session: clears previously collected events and makes
/// tracing() true.  Implies nothing about enabled() — spans still need
/// telemetry enabled to record anything.
void start_tracing();

/// End the trace session; collected events stay available until the
/// next start_tracing().
void stop_tracing();

/// All events collected so far, merged across threads and sorted by
/// (tid, ts_ns).  Safe to call during or after a session.
[[nodiscard]] std::vector<TraceEvent> collected_trace();

/// Chrome trace ("Trace Event Format") JSON for the given events.
[[nodiscard]] std::string chrome_trace_json(
    const std::vector<TraceEvent>& events);

/// chrome_trace_json(collected_trace()) written to `path`.
void write_chrome_trace(const std::string& path);

}  // namespace memcim::telemetry
