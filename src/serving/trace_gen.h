// Seeded request-trace generation and the scalar (batch-of-1)
// reference executor — the serving test/bench kit.
//
// generate_trace draws an open-loop Poisson arrival process (seeded
// mt19937_64 → bitwise reproducible): exponential interarrival gaps,
// class picked by weight, payloads drawn to the workload shapes.  The
// same trace replayed through WorkloadService::run is the soak/bench
// driver; replayed request-by-request through scalar_reference it is
// the golden model the batched responses must match bitwise.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "serving/dispatcher.h"
#include "serving/request.h"

namespace memcim::serving {

struct TraceParams {
  std::uint64_t seed = 0xC1A0;
  std::size_t requests = 1000;
  /// Mean exponential interarrival gap (virtual ns).  The offered load
  /// knob: 1e9 / mean_interarrival_ns is the offered QPS.
  double mean_interarrival_ns = 400.0;
  /// Relative class mix (kmer, cam, add); need not sum to 1.
  std::array<double, kRequestClasses> class_weights = {0.05, 0.05, 0.90};
  std::size_t kmer_key_bits = 64;  ///< must equal tile row_bits
  std::size_t cam_key_bits = 32;   ///< must equal cam word_bits
  std::size_t add_width = 32;      ///< operand width for kAddition
};

/// `count` random words of `bits` bits each — database/CAM content.
[[nodiscard]] std::vector<std::vector<bool>> random_words(std::size_t count,
                                                          std::size_t bits,
                                                          Rng& rng);

/// A seeded open-loop arrival trace: `requests` entries, ids 0..n-1,
/// nondecreasing arrival stamps starting at the first gap.
[[nodiscard]] std::vector<Request> generate_trace(const TraceParams& params);

/// The golden model: execute `trace` request by request (every batch
/// has exactly one lane) on a fresh fabric and return responses in
/// trace order.  payload_equal against the batched service's responses
/// is the bitwise serving contract.
[[nodiscard]] std::vector<Response> scalar_reference(
    const TileFabricConfig& fabric_config,
    const ServingWorkloadConfig& workload,
    const std::vector<std::vector<bool>>& kmer_database,
    const std::vector<std::vector<bool>>& cam_rows,
    const std::vector<Request>& trace);

}  // namespace memcim::serving
