#include "serving/trace_gen.h"

#include <cmath>

#include "common/error.h"

namespace memcim::serving {

namespace {

std::vector<bool> random_key(std::size_t bits, Rng& rng) {
  std::vector<bool> key(bits);
  for (std::size_t i = 0; i < bits; ++i) key[i] = rng.bernoulli(0.5);
  return key;
}

RequestClass pick_class(const std::array<double, kRequestClasses>& weights,
                        Rng& rng) {
  double total = 0.0;
  for (const double w : weights) {
    MEMCIM_CHECK_MSG(w >= 0.0, "class weights must be non-negative");
    total += w;
  }
  MEMCIM_CHECK_MSG(total > 0.0, "class weights must not all be zero");
  const double u = rng.uniform(0.0, total);
  double acc = 0.0;
  for (std::size_t c = 0; c < kRequestClasses; ++c) {
    acc += weights[c];
    if (u < acc) return static_cast<RequestClass>(c);
  }
  return static_cast<RequestClass>(kRequestClasses - 1);
}

}  // namespace

std::vector<std::vector<bool>> random_words(std::size_t count,
                                            std::size_t bits, Rng& rng) {
  std::vector<std::vector<bool>> words;
  words.reserve(count);
  for (std::size_t i = 0; i < count; ++i) words.push_back(random_key(bits, rng));
  return words;
}

std::vector<Request> generate_trace(const TraceParams& params) {
  MEMCIM_CHECK_MSG(params.mean_interarrival_ns > 0.0,
                   "mean interarrival gap must be positive");
  MEMCIM_CHECK_MSG(params.add_width >= 1 && params.add_width <= 63,
                   "trace add_width must be 1..63");
  Rng rng(params.seed);
  const std::uint64_t add_mask =
      (std::uint64_t{1} << params.add_width) - 1;

  std::vector<Request> trace;
  trace.reserve(params.requests);
  VirtualNs clock = 0;
  for (std::size_t i = 0; i < params.requests; ++i) {
    // Exponential gap, rounded to whole virtual ns.  Zero gaps (ties)
    // are legal — the service admits same-instant arrivals in trace
    // order.
    const double u = rng.uniform(0.0, 1.0);
    const double gap = -params.mean_interarrival_ns * std::log1p(-u);
    const long long gap_ns = std::llround(gap);
    clock += gap_ns < 0 ? VirtualNs{0} : static_cast<VirtualNs>(gap_ns);

    Request r;
    r.cls = pick_class(params.class_weights, rng);
    r.id = i;
    r.arrival = clock;
    switch (r.cls) {
      case RequestClass::kKmerQuery:
        r.key = random_key(params.kmer_key_bits, rng);
        break;
      case RequestClass::kCamSearch:
        r.key = random_key(params.cam_key_bits, rng);
        break;
      case RequestClass::kAddition:
        r.add_a = static_cast<std::uint64_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(add_mask))) &
                  add_mask;
        r.add_b = static_cast<std::uint64_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(add_mask))) &
                  add_mask;
        break;
    }
    trace.push_back(std::move(r));
  }
  return trace;
}

std::vector<Response> scalar_reference(
    const TileFabricConfig& fabric_config,
    const ServingWorkloadConfig& workload,
    const std::vector<std::vector<bool>>& kmer_database,
    const std::vector<std::vector<bool>>& cam_rows,
    const std::vector<Request>& trace) {
  TileFabric fabric(fabric_config);
  BatchDispatcher dispatcher(fabric, workload, kmer_database, cam_rows);
  std::vector<Response> responses;
  responses.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    Batch batch;
    batch.cls = trace[i].cls;
    batch.seq = i;
    batch.formed = trace[i].arrival;
    batch.partial = true;
    batch.requests.push_back(trace[i]);
    BatchExecution exec = dispatcher.execute(batch);
    responses.push_back(std::move(exec.responses.front()));
  }
  return responses;
}

}  // namespace memcim::serving
