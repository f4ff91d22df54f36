#include "telemetry/attribution.h"

#include <array>
#include <fstream>

#include "telemetry/json_writer.h"

namespace memcim::telemetry {

namespace {

struct LayerCounters {
  Counter& energy_aj;
  Counter& pulses;
  Counter& flits;
  Counter& span_ns;
};

/// attr.<layer>.{energy_aj,pulses,flits,span_ns} rollups: the book's
/// column totals, mirrored into the counter registry so snapshots and
/// the determinism tests see them alongside every other tally.
LayerCounters& layer_counters(AttrLayer layer) {
  static std::array<LayerCounters, 5> counters = [] {
    Registry& r = Registry::global();
    auto make = [&r](std::string_view name) {
      const std::string prefix = "attr." + std::string(name);
      return LayerCounters{r.counter(prefix + ".energy_aj"),
                           r.counter(prefix + ".pulses"),
                           r.counter(prefix + ".flits"),
                           r.counter(prefix + ".span_ns")};
    };
    return std::array<LayerCounters, 5>{
        make("device"), make("crossbar"), make("logic"), make("noc"),
        make("arch")};
  }();
  return counters[static_cast<std::size_t>(layer)];
}

}  // namespace

std::string_view attr_layer_name(AttrLayer layer) {
  switch (layer) {
    case AttrLayer::kDevice:
      return "device";
    case AttrLayer::kCrossbar:
      return "crossbar";
    case AttrLayer::kLogic:
      return "logic";
    case AttrLayer::kNoc:
      return "noc";
    case AttrLayer::kArch:
      return "arch";
  }
  return "unknown";
}

AttributionBook& AttributionBook::global() {
  // Never destroyed, like Registry::global(): pool workers and test
  // threads can book attribution while static destructors run at exit.
  static AttributionBook* const book = new AttributionBook();
  return *book;
}

void AttributionBook::record(const AttrKey& key, const AttrDelta& delta) {
  if (!enabled()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rows_[key] += delta;
    total_ += delta;
  }
  LayerCounters& c = layer_counters(key.layer);
  if (delta.energy_aj != 0) c.energy_aj.add(delta.energy_aj);
  if (delta.pulses != 0) c.pulses.add(delta.pulses);
  if (delta.flits != 0) c.flits.add(delta.flits);
  if (delta.span_ns != 0) c.span_ns.add(delta.span_ns);
}

std::vector<AttrRecord> AttributionBook::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<AttrRecord> rows;
  rows.reserve(rows_.size());
  for (const auto& [key, delta] : rows_) rows.push_back({key, delta});
  return rows;
}

AttrDelta AttributionBook::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

AttrDelta AttributionBook::layer_totals(AttrLayer layer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  AttrDelta sum;
  for (const auto& [key, delta] : rows_)
    if (key.layer == layer) sum += delta;
  return sum;
}

void AttributionBook::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  rows_.clear();
  total_ = AttrDelta{};
}

void attribute_energy(AttrLayer layer, std::uint32_t tile, std::uint32_t shard,
                      double joules) {
  AttrDelta d;
  d.energy_aj = to_attojoules(joules);
  AttributionBook::global().record({layer, tile, shard}, d);
}

void attribute_pulses(AttrLayer layer, std::uint32_t tile, std::uint32_t shard,
                      std::uint64_t pulses) {
  AttrDelta d;
  d.pulses = pulses;
  AttributionBook::global().record({layer, tile, shard}, d);
}

void attribute_flits(std::uint32_t tile, std::uint32_t shard,
                     std::uint64_t flits) {
  AttrDelta d;
  d.flits = flits;
  AttributionBook::global().record({AttrLayer::kNoc, tile, shard}, d);
}

void attribute_span_ns(AttrLayer layer, std::uint32_t tile,
                       std::uint32_t shard, std::uint64_t ns) {
  AttrDelta d;
  d.span_ns = ns;
  AttributionBook::global().record({layer, tile, shard}, d);
}

namespace {

void write_delta(JsonWriter& w, const AttrDelta& d) {
  w.key("energy_aj").value(d.energy_aj);
  w.key("pulses").value(d.pulses);
  w.key("flits").value(d.flits);
  w.key("span_ns").value(d.span_ns);
}

}  // namespace

std::string attribution_json() {
  const AttributionBook& book = AttributionBook::global();
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("memcim-attr-v1");
  w.key("totals").begin_object();
  write_delta(w, book.totals());
  w.end_object();
  w.key("rows").begin_array();
  for (const AttrRecord& row : book.snapshot()) {
    w.begin_object();
    w.key("layer").value(attr_layer_name(row.key.layer));
    if (row.key.tile == kNoTile)
      w.key("tile").value(std::int64_t{-1});
    else
      w.key("tile").value(static_cast<std::uint64_t>(row.key.tile));
    if (row.key.shard == kNoShard)
      w.key("shard").value(std::int64_t{-1});
    else
      w.key("shard").value(static_cast<std::uint64_t>(row.key.shard));
    write_delta(w, row.delta);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

void write_attribution_json(const std::string& path) {
  std::ofstream out(path);
  out << attribution_json();
}

}  // namespace memcim::telemetry
