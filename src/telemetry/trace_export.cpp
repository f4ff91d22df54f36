#include "telemetry/trace_export.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <unordered_map>

#include "telemetry/json_writer.h"

namespace memcim::telemetry {

namespace {

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  out << contents;
}

struct TileLabels {
  std::mutex mutex;
  std::map<std::uint32_t, std::string> labels;
};

TileLabels& tile_labels() {
  static TileLabels labels;
  return labels;
}

/// Chrome-trace pid: tiles get pid tile+1 so pid 0 stays the host.
std::uint64_t pid_for_tile(std::uint32_t tile) {
  return tile == kNoTile ? 0 : static_cast<std::uint64_t>(tile) + 1;
}

}  // namespace

void set_tile_trace_label(std::uint32_t tile, std::string label) {
  if (tile == kNoTile) return;
  TileLabels& tl = tile_labels();
  std::lock_guard<std::mutex> lock(tl.mutex);
  tl.labels[tile] = std::move(label);
}

std::string chrome_trace_json(const std::vector<TraceEvent>& events) {
  // Index span ids so cross-tile/thread parent links can be drawn as
  // flow arrows (dispatch → child), and collect the pid/tid universe
  // for metadata name events.
  std::unordered_map<std::uint64_t, const TraceEvent*> by_span;
  std::set<std::uint64_t> pids;
  std::set<std::pair<std::uint64_t, std::uint32_t>> threads;
  for (const TraceEvent& e : events) {
    if (e.span_id != 0) by_span.emplace(e.span_id, &e);
    pids.insert(pid_for_tile(e.tile));
    threads.insert({pid_for_tile(e.tile), e.tid});
  }

  JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();

  // Metadata: name processes after tiles and threads after worker ids
  // so Perfetto groups the timeline by tile instead of raw tids.
  {
    TileLabels& tl = tile_labels();
    std::lock_guard<std::mutex> lock(tl.mutex);
    for (std::uint64_t pid : pids) {
      std::string name = "host";
      if (pid != 0) {
        const auto tile = static_cast<std::uint32_t>(pid - 1);
        const auto it = tl.labels.find(tile);
        name = it != tl.labels.end() ? it->second
                                     : "tile " + std::to_string(tile);
      }
      w.begin_object();
      w.key("name").value("process_name");
      w.key("ph").value("M");
      w.key("pid").value(pid);
      w.key("args").begin_object();
      w.key("name").value(name);
      w.end_object();
      w.end_object();
    }
  }
  for (const auto& [pid, tid] : threads) {
    w.begin_object();
    w.key("name").value("thread_name");
    w.key("ph").value("M");
    w.key("pid").value(pid);
    w.key("tid").value(static_cast<std::uint64_t>(tid));
    w.key("args").begin_object();
    w.key("name").value("worker " + std::to_string(tid));
    w.end_object();
    w.end_object();
  }

  for (const TraceEvent& e : events) {
    const std::uint64_t pid = pid_for_tile(e.tile);
    w.begin_object();
    w.key("name").value(*e.name);
    w.key("cat").value("memcim");
    if (e.phase == 'i') {
      // Instant event (health alert marker): global scope draws the
      // vertical line across every track.
      w.key("ph").value("i");
      w.key("s").value("g");
      w.key("pid").value(pid);
      w.key("tid").value(static_cast<std::uint64_t>(e.tid));
      w.key("ts").value(static_cast<double>(e.ts_ns) / 1000.0);
      if (e.trace_id != 0) {
        w.key("args").begin_object();
        w.key("trace_id").value(e.trace_id);
        w.end_object();
      }
      w.end_object();
      continue;
    }
    w.key("ph").value("X");
    w.key("pid").value(pid);
    w.key("tid").value(static_cast<std::uint64_t>(e.tid));
    // Trace Event Format timestamps are microseconds; doubles keep
    // sub-microsecond span starts distinct.
    w.key("ts").value(static_cast<double>(e.ts_ns) / 1000.0);
    w.key("dur").value(static_cast<double>(e.dur_ns) / 1000.0);
    if (e.trace_id != 0) {
      w.key("args").begin_object();
      w.key("trace_id").value(e.trace_id);
      w.key("span_id").value(e.span_id);
      w.key("parent_span").value(e.parent_span);
      w.end_object();
    }
    w.end_object();

    // A parent on another tile or thread gets an explicit flow arrow;
    // same-track nesting is already visible from the timeline.
    if (e.parent_span == 0) continue;
    const auto pit = by_span.find(e.parent_span);
    if (pit == by_span.end()) continue;
    const TraceEvent& p = *pit->second;
    const std::uint64_t ppid = pid_for_tile(p.tile);
    if (ppid == pid && p.tid == e.tid) continue;
    const double child_ts = static_cast<double>(e.ts_ns) / 1000.0;
    const double start_ts =
        std::min(static_cast<double>(p.ts_ns) / 1000.0, child_ts);
    w.begin_object();
    w.key("name").value("dispatch");
    w.key("cat").value("memcim.flow");
    w.key("ph").value("s");
    w.key("id").value(e.span_id);
    w.key("pid").value(ppid);
    w.key("tid").value(static_cast<std::uint64_t>(p.tid));
    w.key("ts").value(start_ts);
    w.end_object();
    w.begin_object();
    w.key("name").value("dispatch");
    w.key("cat").value("memcim.flow");
    w.key("ph").value("f");
    w.key("bp").value("e");
    w.key("id").value(e.span_id);
    w.key("pid").value(pid);
    w.key("tid").value(static_cast<std::uint64_t>(e.tid));
    w.key("ts").value(child_ts);
    w.end_object();
  }
  w.end_array();
  w.key("displayTimeUnit").value("ns");
  w.end_object();
  return w.str();
}

void write_chrome_trace(const std::string& path) {
  write_file(path, chrome_trace_json(collected_trace()));
}

}  // namespace memcim::telemetry
