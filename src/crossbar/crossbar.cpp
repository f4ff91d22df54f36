#include "crossbar/crossbar.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>

#include "common/error.h"
#include "common/matrix.h"
#include "common/parallel.h"
#include "common/sparse.h"
#include "device/crs.h"
#include "telemetry/telemetry.h"

namespace memcim {

namespace {

/// Solver metric bundle, resolved once (see docs/TELEMETRY.md for the
/// catalogue).  Counter::add() is already a no-op while disabled, so
/// call sites need no guard of their own.
struct CrossbarMetrics {
  telemetry::Counter& solves;
  telemetry::Counter& sweeps;
  telemetry::Counter& assembles;
  telemetry::Counter& warm_hits;
  telemetry::Counter& dense_solves;
  telemetry::Counter& cg_solves;
  telemetry::Counter& pulses;
  CrossbarMetrics()
      : solves(telemetry::Registry::global().counter("crossbar.solve.count")),
        sweeps(telemetry::Registry::global().counter("crossbar.solve.sweeps")),
        assembles(
            telemetry::Registry::global().counter("crossbar.assemble.count")),
        warm_hits(
            telemetry::Registry::global().counter("crossbar.warm_start.hits")),
        dense_solves(
            telemetry::Registry::global().counter("crossbar.backend.dense")),
        cg_solves(telemetry::Registry::global().counter("crossbar.backend.cg")),
        pulses(telemetry::Registry::global().counter("crossbar.pulse.count")) {}
};

CrossbarMetrics& xbar_metrics() {
  static CrossbarMetrics m;
  return m;
}

/// Conductance floor keeping the nodal matrix nonsingular when lines
/// float behind fully-HRS junctions; far below any device G_off.
constexpr double kGFloor = 1e-15;

/// Ideal drivers are stamped as a very stiff source resistance so the
/// distributed formulation can keep every node as an unknown.
constexpr double kIdealDriverOhms = 1e-3;

/// Junctions per parallel_for chunk when evaluating device conductance
/// or current (virtual call + possible sinh per junction).
constexpr std::size_t kDeviceGrain = 512;

/// The fixed-point loop's policy (docs/SOLVER.md): at most kMaxSweeps
/// sweeps, converged once the largest node update falls below
/// kSweepTolerance volts.  The first sweep is undamped, later ones take
/// new = λ·solved + (1−λ)·old from λ = kDamping, halved down to
/// kMinDamping whenever an update grows.  CG runs to kCgTolerance
/// relative to ‖rhs‖₂.
constexpr std::size_t kMaxSweeps = 120;
constexpr double kSweepTolerance = 1e-6;
constexpr double kDamping = 0.7;
constexpr double kMinDamping = 0.05;
constexpr double kCgTolerance = 1e-12;

/// Marks a node an ideal driver holds at its source: it is no unknown.
constexpr std::size_t kPinned = static_cast<std::size_t>(-1);

/// Slot quadruple of one junction's nodal stamps; kNoSlot marks stamps
/// that do not exist (an endpoint is pinned).
constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
struct JunctionSlots {
  std::size_t rr = kNoSlot;  ///< (row diag, row diag)
  std::size_t cc = kNoSlot;  ///< (col diag, col diag)
  std::size_t rc = kNoSlot;  ///< (row, col) off-diagonal
  std::size_t cr = kNoSlot;  ///< (col, row) off-diagonal
};

/// Node of junction (r, c) on one wire layer.
struct NodeMap {
  std::size_t base, per_row, per_col;
  [[nodiscard]] std::size_t operator()(std::size_t r, std::size_t c) const {
    return base + r * per_row + c * per_col;
  }
};

/// One network model as data: what the nodal loop in
/// CrossbarArray::solve needs to know of the circuit under one bias
/// pattern.  Nothing past its construction depends on the model.
struct Network {
  /// Junction (r, c) joins node row_wire(r, c) to node col_wire(r, c).
  /// A line's driver attaches at, and the line reports its voltage at,
  /// its first junction: row_wire(r, 0) and col_wire(0, c).
  NodeMap row_wire, col_wire;
  /// Per node: its unknown in the nodal system (numbered in node
  /// order), or kPinned.
  std::vector<std::size_t> unknown;
  std::size_t unknowns = 0;
  /// Conductance of the wire segment between neighbouring junctions'
  /// nodes on each wire; 0 = ideal lines, no segments.
  double g_wire = 0.0;
  /// Source conductance of every driver whose node is an unknown.
  double g_driver = 0.0;
  /// Node voltages a cold start begins from.  A warm start begins from
  /// the previous solve's and resets only the `repin` nodes to these.
  std::vector<double> cold;
  std::vector<std::size_t> repin;
  /// Largest residual norm accepted from a CG that stops short of
  /// kCgTolerance.
  double cg_bound = 0.0;
};

// Lumped lines: node r is word line r, node rows + c bit line c.  An
// ideal driver pins its line to the source; every solve, warm or cold,
// starts a driven line at its source.
Network lumped_network(const CrossbarConfig& config, const LineBias& bias) {
  const std::size_t m = config.rows, lines = config.rows + config.cols;
  const bool ideal_drivers = config.driver.value() == 0.0;
  Network net;
  net.row_wire = {0, 1, 0};
  net.col_wire = {m, 0, 1};
  net.unknown.assign(lines, kPinned);
  net.g_driver = ideal_drivers ? 0.0 : 1.0 / config.driver.value();
  net.cold.assign(lines, 0.0);
  for (std::size_t l = 0; l < lines; ++l) {
    const std::optional<Voltage>& source =
        l < m ? bias.rows[l] : bias.cols[l - m];
    if (source) {
      net.cold[l] = source->value();
      net.repin.push_back(l);
    }
    if (!source || !ideal_drivers) net.unknown[l] = net.unknowns++;
  }
  net.cg_bound = 1e-9;
  return net;
}

// Distributed: a node per junction on each wire layer (row wires
// row-major, then column wires column-major), wire segments between
// neighbours, drivers at column 0 and row 0.  Ideal drivers become a
// stiff source so every node is an unknown; a driven line is seeded
// with its source on a cold start only.
Network distributed_network(const CrossbarConfig& config,
                            const LineBias& bias) {
  const std::size_t m = config.rows, n = config.cols;
  MEMCIM_CHECK_MSG(m * n <= 256 * 256,
                   "distributed model is intended for arrays up to 256x256; "
                   "use kLumpedLines beyond that");
  Network net;
  net.row_wire = {0, n, 1};
  net.col_wire = {m * n, 1, m};
  net.unknowns = 2 * m * n;
  net.unknown.resize(net.unknowns);
  std::iota(net.unknown.begin(), net.unknown.end(), std::size_t{0});
  net.g_wire = 1.0 / config.wire_segment.value();
  net.g_driver = 1.0 / (config.driver.value() > 0.0 ? config.driver.value()
                                                    : kIdealDriverOhms);
  net.cold.assign(net.unknowns, 0.0);
  double injection = 0.0;  // ‖driver injection g·V‖₂², rows then columns
  for (std::size_t r = 0; r < m; ++r)
    if (bias.rows[r]) {
      const double i = net.g_driver * bias.rows[r]->value();
      injection += i * i;
      for (std::size_t c = 0; c < n; ++c)
        net.cold[net.row_wire(r, c)] = bias.rows[r]->value();
    }
  for (std::size_t c = 0; c < n; ++c)
    if (bias.cols[c]) {
      const double i = net.g_driver * bias.cols[c]->value();
      injection += i * i;
      for (std::size_t r = 0; r < m; ++r)
        net.cold[net.col_wire(r, c)] = bias.cols[c]->value();
    }
  net.cg_bound = 1e-6 * std::sqrt(injection);
  return net;
}

/// Each model's solve span, registered on the model's first solve.
telemetry::SpanSite& solve_site(NetworkModel model) {
  if (model == NetworkModel::kLumpedLines) {
    static telemetry::SpanSite site("crossbar.solve_lumped");
    return site;
  }
  static telemetry::SpanSite site("crossbar.solve_distributed");
  return site;
}

}  // namespace

const char* to_string(NetworkModel m) {
  switch (m) {
    case NetworkModel::kLumpedLines: return "lumped-lines";
    case NetworkModel::kDistributed: return "distributed";
  }
  return "?";
}

CrossbarArray::CrossbarArray(const CrossbarConfig& config,
                             const Device& prototype)
    : config_(config) {
  MEMCIM_CHECK_MSG(config_.rows > 0 && config_.cols > 0,
                   "crossbar dimensions must be positive");
  MEMCIM_CHECK_MSG(config_.cols <= kMaxCrsCells / config_.rows,
                   "a " << config_.rows << " x " << config_.cols
                        << " crossbar has more than kMaxCrsCells junctions");
  MEMCIM_CHECK_MSG(std::isfinite(config_.wire_segment.value()) &&
                       config_.wire_segment.value() > 0.0,
                   "wire segment resistance must be finite and positive");
  MEMCIM_CHECK_MSG(std::isfinite(config_.driver.value()) &&
                       config_.driver.value() >= 0.0,
                   "driver resistance must be finite and non-negative");
  devices_.reserve(config_.rows * config_.cols);
  for (std::size_t i = 0; i < config_.rows * config_.cols; ++i)
    devices_.push_back(prototype.clone());
}

Device& CrossbarArray::device(std::size_t r, std::size_t c) {
  MEMCIM_CHECK(r < rows() && c < cols());
  return *devices_[r * cols() + c];
}

const Device& CrossbarArray::device(std::size_t r, std::size_t c) const {
  MEMCIM_CHECK(r < rows() && c < cols());
  return *devices_[r * cols() + c];
}

void CrossbarArray::store_bit(std::size_t r, std::size_t c, bool bit) {
  device(r, c).set_state(bit ? 1.0 : 0.0);
}

bool CrossbarArray::stored_bit(std::size_t r, std::size_t c) const {
  return device(r, c).is_lrs();
}

CrossbarSolution CrossbarArray::solve(const LineBias& bias) const {
  MEMCIM_CHECK_MSG(bias.rows.size() == rows() && bias.cols.size() == cols(),
                   "bias vector sizes must match the array");
  telemetry::Span span(solve_site(config_.model));
  Network net = config_.model == NetworkModel::kLumpedLines
                    ? lumped_network(config_, bias)
                    : distributed_network(config_, bias);
  const std::size_t m = rows(), n = cols(), junctions = m * n;
  const std::size_t k = net.unknowns;
  const auto row_node = [&](std::size_t j) {
    return net.row_wire(j / n, j % n);
  };
  const auto col_node = [&](std::size_t j) {
    return net.col_wire(j / n, j % n);
  };

  // Node voltage estimate.  A warm start resumes from the previous solve
  // (a transient step's network barely moves between pulses).
  std::vector<double> v;
  if (config_.warm_start && warm_.size() == net.cold.size()) {
    v = warm_;
    for (std::size_t node : net.repin) v[node] = net.cold[node];
    xbar_metrics().warm_hits.add(1);
  } else {
    v = std::move(net.cold);
  }

  // Line drivers, rows then columns: (attach node, source volts).  One
  // whose node is an unknown stamps its conductance and injects g·V.
  std::vector<std::pair<std::size_t, double>> drivers;
  for (std::size_t r = 0; r < m; ++r)
    if (bias.rows[r])
      drivers.emplace_back(net.row_wire(r, 0), bias.rows[r]->value());
  for (std::size_t c = 0; c < n; ++c)
    if (bias.cols[c])
      drivers.emplace_back(net.col_wire(0, c), bias.cols[c]->value());
  std::vector<double> injection(k, 0.0);
  for (const auto& [node, source] : drivers)
    if (net.unknown[node] != kPinned)
      injection[net.unknown[node]] += net.g_driver * source;

  // The nodal sparsity pattern is fixed for the lifetime of this solve:
  // assemble the CSR structure once (junction stamps structural with
  // value 0, constant stamps with their value), then refresh only the
  // junction chord conductances on every sweep through pre-resolved
  // slot indices.  No triplet sort per sweep.
  SparseMatrix a(k, k);
  std::vector<double> base_values;    // constant stamps
  std::vector<JunctionSlots> jslots;  // per junction, row-major
  bool structure_ready = false;
  const auto build_structure = [&] {
    static telemetry::SpanSite assemble_site("crossbar.assemble");
    telemetry::Span assemble_span(assemble_site);
    xbar_metrics().assembles.add(1);
    a = SparseMatrix(k, k);
    // A conductance between nodes p and q, at the ends that are unknowns.
    const auto stamp = [&](std::size_t p, std::size_t q, double g) {
      const std::size_t up = net.unknown[p], uq = net.unknown[q];
      if (up != kPinned) a.add(up, up, g);
      if (uq != kPinned) a.add(uq, uq, g);
      if (up != kPinned && uq != kPinned) {
        a.add(up, uq, -g);
        a.add(uq, up, -g);
      }
    };
    // Wire segments, rows then columns.
    if (net.g_wire > 0.0) {
      for (std::size_t r = 0; r < m; ++r)
        for (std::size_t c = 0; c + 1 < n; ++c)
          stamp(net.row_wire(r, c), net.row_wire(r, c + 1), net.g_wire);
      for (std::size_t c = 0; c < n; ++c)
        for (std::size_t r = 0; r + 1 < m; ++r)
          stamp(net.col_wire(r, c), net.col_wire(r + 1, c), net.g_wire);
    }
    for (std::size_t j = 0; j < junctions; ++j)
      stamp(row_node(j), col_node(j), 0.0);
    for (const auto& [node, source] : drivers)
      if (net.unknown[node] != kPinned)
        a.add(net.unknown[node], net.unknown[node], net.g_driver);
    a.finalize();
    base_values = a.values();
    jslots.assign(junctions, JunctionSlots{});
    for (std::size_t j = 0; j < junctions; ++j) {
      const std::size_t ur = net.unknown[row_node(j)];
      const std::size_t uc = net.unknown[col_node(j)];
      JunctionSlots& s = jslots[j];
      if (ur != kPinned) s.rr = a.slot(ur, ur);
      if (uc != kPinned) s.cc = a.slot(uc, uc);
      if (ur != kPinned && uc != kPinned) {
        s.rc = a.slot(ur, uc);
        s.cr = a.slot(uc, ur);
      }
    }
    structure_ready = config_.reuse_structure;
  };

  const auto solve_linear = [&](const std::vector<double>& rhs) {
    static telemetry::SpanSite linear_site("crossbar.linear_solve");
    telemetry::Span linear_span(linear_site);
    if (k <= config_.dense_solver_max_unknowns) {
      xbar_metrics().dense_solves.add(1);
      return solve_dense(a.to_dense(), rhs);
    }
    xbar_metrics().cg_solves.add(1);
    CgOptions opts;
    opts.tolerance = kCgTolerance;
    if (config_.warm_start) {
      opts.x0.resize(k);
      for (std::size_t node = 0; node < v.size(); ++node)
        if (net.unknown[node] != kPinned) opts.x0[net.unknown[node]] = v[node];
    }
    CgResult cg = conjugate_gradient(a, rhs, opts);
    MEMCIM_CHECK_MSG(cg.converged || cg.residual_norm <= net.cg_bound,
                     "crossbar CG failed to converge");
    return std::move(cg.x);
  };

  CrossbarSolution sol;
  sol.row_voltage.resize(m);
  sol.col_voltage.resize(n);
  sol.device_voltage.assign(junctions, 0.0);
  sol.device_current.assign(junctions, 0.0);
  sol.row_terminal_current.assign(m, 0.0);
  sol.col_terminal_current.assign(n, 0.0);

  // With every node pinned there is nothing to solve.
  if (k == 0) {
    sol.nonlinear_iterations = 1;
    sol.converged = true;
  }
  std::vector<double> g(junctions, 0.0);
  std::vector<double> rhs;
  double lambda_adaptive = kDamping;
  double prev_max_dv = std::numeric_limits<double>::infinity();
  for (std::size_t sweep = 0; !sol.converged && sweep < kMaxSweeps; ++sweep) {
    // Chord conductance of every junction at the present estimate.
    parallel_for_chunks(
        0, junctions, kDeviceGrain, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t j = lo; j < hi; ++j) {
            const Voltage vd(v[row_node(j)] - v[col_node(j)]);
            g[j] = std::max(kGFloor, devices_[j]->conductance(vd).value());
          }
        });

    if (!structure_ready)
      build_structure();
    else
      a.begin_update(base_values);
    // Numeric refresh: serial on purpose — diagonal slots are shared
    // across junctions of a line, so this accumulation must stay in a
    // fixed order for bitwise reproducibility.  A junction with one end
    // pinned adds g·V of that end to the other end's right-hand side.
    rhs = injection;
    for (std::size_t j = 0; j < junctions; ++j) {
      const double gj = g[j];
      const JunctionSlots& s = jslots[j];
      if (s.rr != kNoSlot) a.add_slot(s.rr, gj);
      if (s.cc != kNoSlot) a.add_slot(s.cc, gj);
      if (s.rc != kNoSlot) {
        a.add_slot(s.rc, -gj);
        a.add_slot(s.cr, -gj);
      } else if (s.rr != kNoSlot && s.cc == kNoSlot) {
        rhs[net.unknown[row_node(j)]] += gj * v[col_node(j)];
      } else if (s.cc != kNoSlot && s.rr == kNoSlot) {
        rhs[net.unknown[col_node(j)]] += gj * v[row_node(j)];
      }
    }
    const std::vector<double> x = solve_linear(rhs);

    // Damped update (first sweep undamped so ohmic arrays settle in one
    // solve).  Stiff junction nonlinearities (sinh selectors) make the
    // plain fixed point oscillate, so whenever the update grows the step
    // halves.
    const double lambda = sweep == 0 ? 1.0 : lambda_adaptive;
    double max_dv = 0.0;
    for (std::size_t node = 0; node < v.size(); ++node) {
      if (net.unknown[node] == kPinned) continue;
      const double next =
          lambda * x[net.unknown[node]] + (1.0 - lambda) * v[node];
      max_dv = std::max(max_dv, std::abs(next - v[node]));
      v[node] = next;
    }
    sol.nonlinear_iterations = sweep + 1;
    if (sweep > 0 && max_dv < kSweepTolerance)
      sol.converged = true;
    else if (sweep > 0 && max_dv >= prev_max_dv)
      lambda_adaptive = std::max(kMinDamping, 0.5 * lambda_adaptive);
    prev_max_dv = max_dv;
  }

  for (std::size_t r = 0; r < m; ++r)
    sol.row_voltage[r] = v[net.row_wire(r, 0)];
  for (std::size_t c = 0; c < n; ++c)
    sol.col_voltage[c] = v[net.col_wire(0, c)];
  parallel_for_chunks(
      0, junctions, kDeviceGrain, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t j = lo; j < hi; ++j) {
          const double vd = v[row_node(j)] - v[col_node(j)];
          sol.device_voltage[j] = vd;
          sol.device_current[j] = devices_[j]->current(Voltage(vd)).value();
        }
      });
  // Terminal currents: through the driver's source conductance, or for a
  // pinned line the sum of its junction currents.  Junction current is
  // positive row→col, i.e. *into* a column; the terminal convention is
  // source→array, so a column's sum is negated.
  for (std::size_t r = 0; r < m; ++r) {
    if (!bias.rows[r]) continue;
    const std::size_t node = net.row_wire(r, 0);
    if (net.unknown[node] == kPinned) {
      double sum = 0.0;
      for (std::size_t c = 0; c < n; ++c) sum += sol.device_current[r * n + c];
      sol.row_terminal_current[r] = sum;
    } else {
      sol.row_terminal_current[r] =
          (bias.rows[r]->value() - v[node]) * net.g_driver;
    }
  }
  for (std::size_t c = 0; c < n; ++c) {
    if (!bias.cols[c]) continue;
    const std::size_t node = net.col_wire(0, c);
    if (net.unknown[node] == kPinned) {
      double sum = 0.0;
      for (std::size_t r = 0; r < m; ++r) sum += sol.device_current[r * n + c];
      sol.col_terminal_current[c] = -sum;
    } else {
      sol.col_terminal_current[c] =
          (bias.cols[c]->value() - v[node]) * net.g_driver;
    }
  }
  warm_ = std::move(v);
  xbar_metrics().solves.add(1);
  xbar_metrics().sweeps.add(sol.nonlinear_iterations);
  return sol;
}

CrossbarSolution CrossbarArray::apply_pulse(const LineBias& bias, Time dt) {
  static telemetry::SpanSite span_site("crossbar.apply_pulse");
  telemetry::Span span(span_site);
  CrossbarSolution sol = solve(bias);
  const std::size_t count = rows() * cols();
  // Device state advancement is embarrassingly parallel: each junction
  // integrates its own state under its solved voltage.
  parallel_for_chunks(0, count, kDeviceGrain,
                      [&](std::size_t lo, std::size_t hi) {
                        for (std::size_t j = lo; j < hi; ++j)
                          devices_[j]->apply(Voltage(sol.device_voltage[j]),
                                             dt);
                      });
  xbar_metrics().pulses.add(1);
  if (telemetry::enabled()) {
    // Per-array energy surfaced through the registry; last-writer-wins
    // across arrays is fine for a gauge, exact sums come from the
    // attojoule counters on the device layer.
    static telemetry::Gauge& energy =
        telemetry::Registry::global().gauge("crossbar.array_energy_j");
    energy.set(total_device_energy().value());
  }
  return sol;
}

Energy CrossbarArray::total_device_energy() const {
  Energy total{0.0};
  for (const auto& d : devices_) total += d->energy_dissipated();
  return total;
}

}  // namespace memcim
