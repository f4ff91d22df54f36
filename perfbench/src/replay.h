// Layer replays for the traced mode.  The benchmark may time only
// public calls, so it reaches below a workload's top-level call by
// running the same work again on standalone instances of the lower
// modules and checking that each replay reproduces the original books
// exactly — a divergent replay would time a different program.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "arch/cim_tile.h"
#include "noc/mesh.h"
#include "perfbench.h"

namespace perfbench {

/// One NoC co-simulation session: a contiguous range of packet handles
/// in the fabric mesh's delivery log.
struct NocSession {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::uint64_t seq = 0;  ///< batch / call the session served
};

/// Books of the NoC layer over one run.
struct NocLayer {
  std::uint64_t sessions = 0;
  std::uint64_t run_ns = 0;  ///< host ns in inject + run_to_completion
  std::uint64_t cycles = 0;  ///< virtual cycles stepped (NocStats::cycles)
  std::uint64_t flits = 0;
  std::uint64_t flit_hops = 0;
  std::uint64_t credit_stalls = 0;
  std::uint64_t nic_wait_p99_cycles = 0;  ///< injected − released
  double repeat_session_share = 0.0;
};

/// Re-inject every session of `original` (which must hold exactly these
/// sessions, in order) into one standalone mesh of the same shape and
/// time each.  Packets are rebuilt from the delivery log: completions
/// (odd tags) follow the command just before them, offset by the
/// observed compute gap; a session's first command to each tile
/// releases at the session start and later ones follow that tile's
/// previous completion.  Fails `out` unless the replay reproduces every
/// delivery, every NocStats field and the dynamic energy bit for bit.
NocLayer replay_noc(const memcim::MeshNoc& original,
                    const std::vector<NocSession>& sessions,
                    const char* parent, SpanLog& log, Outcome& out);

/// Compute-cycle offsets of the completions of one session, in handle
/// order: released − the preceding command's delivery.
std::vector<memcim::NocCycle> completion_offsets(const memcim::MeshNoc& noc,
                                                 const NocSession& session);

/// Compile-cache warm-up: the tiles' word-equality program, compiled
/// from an empty cache as a fresh process would.
void warm_compile_cache(const memcim::CimTileConfig& tile);

/// Run `fn` the way a per-tile task runs inside parallel_for: on a pool
/// thread inside a parallel region, so parallel_for calls nested in it
/// execute serially, exactly as in the original run.
void run_as_pool_task(const std::function<void()>& fn);

/// Per-unit host times of a compute layer: each task timed serially
/// (the layer's own cost) and the same tasks timed through parallel_for
/// (what the parent waited).  A layer contributes min(serial, parallel)
/// of each unit to its parent, so a pool hand-off that costs more than
/// it saves lands in the parent's self time.
struct PoolBooks {
  double serial_ns = 0.0;
  double parallel_ns = 0.0;
  double contribution_ns = 0.0;
  void add_unit(double serial, double parallel) {
    serial_ns += serial;
    parallel_ns += parallel;
    contribution_ns += std::min(serial, parallel);
  }
};

}  // namespace perfbench
