#include "support/metrics_export.h"

#include <sstream>

#include "telemetry/json_writer.h"

namespace memcim::telemetry {

std::string metrics_json(const MetricsSnapshot& snapshot) {
  JsonWriter w;
  w.begin_object();
  w.key("counters").begin_object();
  for (const CounterSample& c : snapshot.counters)
    w.key(c.name).value(c.value);
  w.end_object();
  w.key("gauges").begin_object();
  for (const GaugeSample& g : snapshot.gauges) w.key(g.name).value(g.value);
  w.end_object();
  w.key("histograms").begin_object();
  for (const HistogramSample& h : snapshot.histograms) {
    w.key(h.name).begin_object();
    w.key("count").value(h.count);
    if (h.count > 0) {
      w.key("min").value(h.min);
      w.key("max").value(h.max);
    }
    w.key("upper_bounds").begin_array();
    for (double b : h.upper_bounds) w.value(b);
    w.end_array();
    w.key("bucket_counts").begin_array();
    for (std::uint64_t c : h.bucket_counts) w.value(c);
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

std::string metrics_csv(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  out << "kind,name,value\n";
  for (const CounterSample& c : snapshot.counters)
    out << "counter," << c.name << ',' << c.value << '\n';
  for (const GaugeSample& g : snapshot.gauges)
    out << "gauge," << g.name << ',' << g.value << '\n';
  for (const HistogramSample& h : snapshot.histograms) {
    out << "histogram," << h.name << ".count," << h.count << '\n';
    if (h.count > 0) {
      out << "histogram," << h.name << ".min," << h.min << '\n';
      out << "histogram," << h.name << ".max," << h.max << '\n';
    }
    for (std::size_t i = 0; i < h.bucket_counts.size(); ++i) {
      out << "histogram," << h.name << ".bucket";
      if (i < h.upper_bounds.size())
        out << "_le_" << h.upper_bounds[i];
      else
        out << "_inf";
      out << ',' << h.bucket_counts[i] << '\n';
    }
  }
  return out.str();
}

}  // namespace memcim::telemetry
