// Figure 5 — the two IMP circuit implementations:
//   (a) load-resistor IMPLY: two memristors + R_G, V_COND/V_SET drive
//       (Borghetti/Kvatinsky; our DeviceFabric),
//   (b) in-array CRS IMP: one CRS cell, ±½V_write inputs on its two
//       terminals (Linn; our CrsFabric).
//
// For both we print the verified truth table with the analog margins,
// the per-IMP pulse cost, and an N-bit adder built from the same gate
// library on each backend — "IMP paves the path to more complex
// memristive in-memory-computing architectures" (Section IV.C).
//
// The gate library's declared costs are then checked against an
// IdealFabric run, ending in Table 1's DNA comparator: "2 XOR and a
// NAND implemented by implication logic [58]; 13 memristors; 16 steps".
#include <benchmark/benchmark.h>

#include <fstream>
#include <iostream>

#include "bench_json.h"
#include "common/error.h"
#include "common/table.h"
#include "device/presets.h"
#include "logic/adder.h"
#include "logic/comparator.h"
#include "logic/crs_fabric.h"
#include "logic/device_fabric.h"
#include "logic/gates.h"
#include "logic/ideal_fabric.h"
#include "telemetry/json_writer.h"

namespace {

using namespace memcim;

DeviceFabricParams fig5a_params() {
  DeviceFabricParams p;
  p.device = presets::vcm_taox_logic();
  return p;
}

void print_truth_tables(telemetry::JsonWriter& w) {
  TextTable t({"p", "q", "p IMP q", "Fig5(a) result", "Fig5(a) analog q'",
               "Fig5(b) result", "Fig5(b) CRS state"});
  w.key("truth_table").begin_array();
  for (bool p : {false, true})
    for (bool q : {false, true}) {
      DeviceFabric dev(fig5a_params());
      const Reg dp = dev.alloc(), dq = dev.alloc();
      dev.set(dp, p);
      dev.set(dq, q);
      dev.imply(dp, dq);

      CrsFabric crs(presets::crs_cell());
      const Reg cp = crs.alloc(), cq = crs.alloc();
      crs.set(cp, p);
      crs.set(cq, q);
      crs.imply(cp, cq);

      t.add_row({std::to_string(p), std::to_string(q),
                 std::to_string(!p || q), std::to_string(dev.read(dq)),
                 fixed_string(dev.analog_state(dq), 3),
                 std::to_string(crs.read(cq)),
                 to_string(crs.cell(cq).state())});
      w.begin_object();
      w.key("p").value(p);
      w.key("q").value(q);
      w.key("expected").value(!p || q);
      w.key("device_result").value(dev.read(dq));
      w.key("device_analog_q").value(dev.analog_state(dq));
      w.key("crs_result").value(crs.read(cq));
      w.key("crs_state").value(to_string(crs.cell(cq).state()));
      w.end_object();
    }
  w.end_array();
  std::cout << t.to_text() << '\n';
}

void print_costs(telemetry::JsonWriter& w) {
  TextTable t({"Backend", "steps/IMP", "steps/SET",
               "16-bit ripple add steps (measured)", "latency @200ps"});
  w.key("backend_costs").begin_array();
  auto add_row = [&](const char* name, Fabric& probe, Fabric& adder_fabric) {
    probe.reset_counters();
    const Reg p = probe.alloc(), q = probe.alloc();
    probe.set(p, true);
    const std::uint64_t set_steps = probe.steps();
    probe.set(q, false);
    probe.reset_counters();
    probe.imply(p, q);
    const std::uint64_t imp_steps = probe.steps();
    adder_fabric.reset_counters();
    const std::uint64_t sum = add_integers(adder_fabric, 12345, 23456, 16);
    MEMCIM_CHECK(sum == (12345u + 23456u) % 65536u);
    t.add_row({name, std::to_string(imp_steps), std::to_string(set_steps),
               std::to_string(adder_fabric.steps()),
               si_string(adder_fabric.latency().value(), "s")});
    w.begin_object();
    w.key("backend").value(name);
    w.key("steps_per_imp").value(imp_steps);
    w.key("steps_per_set").value(set_steps);
    w.key("ripple_add16_steps").value(adder_fabric.steps());
    w.key("ripple_add16_latency_s").value(adder_fabric.latency().value());
    w.end_object();
  };
  IdealFabric ideal_probe, ideal_add;
  add_row("IMPLY (cost model)", ideal_probe, ideal_add);
  DeviceFabric dev_probe(fig5a_params()), dev_add(fig5a_params());
  add_row("Fig 5(a) device-level", dev_probe, dev_add);
  CrsFabric crs_probe(presets::crs_cell()), crs_add(presets::crs_cell());
  add_row("Fig 5(b) CRS in-array", crs_probe, crs_add);
  w.end_array();
  std::cout << t.to_text() << '\n'
            << "The paper: Fig 5(b) needs only init+operate per IMP and no\n"
               "load resistor — \"superior performance\" [93]; our CrsFabric\n"
               "charges 2 pulses/IMP vs the 1-pulse IMPLY quantum, but each\n"
               "pulse is a plain write with no analog margin tuning.\n\n";
}

void print_adders(telemetry::JsonWriter& w) {
  TextTable t({"Backend", "13+29 = 42: 13 add check", "steps", "writes"});
  w.key("adder_8bit").begin_array();
  const auto emit = [&](const char* name, std::uint64_t r, Fabric& f) {
    t.add_row({name, std::to_string(r), std::to_string(f.steps()),
               std::to_string(f.writes())});
    w.begin_object();
    w.key("backend").value(name);
    w.key("sum").value(r);
    w.key("steps").value(f.steps());
    w.key("writes").value(f.writes());
    w.end_object();
  };
  {
    IdealFabric f;
    emit("IMPLY ideal", add_integers(f, 13, 29, 8), f);
  }
  {
    CrsFabric f(presets::crs_cell());
    emit("CRS in-array", add_integers(f, 13, 29, 8), f);
  }
  w.end_array();
  std::cout << t.to_text() << '\n';
}

/// Steps and registers one gate or circuit takes on an IdealFabric once
/// its inputs are loaded.
struct Measured {
  std::uint64_t steps = 0;
  std::size_t registers = 0;
  bool out = false;
};

template <typename Body>
Measured measure(const std::vector<bool>& inputs, Body&& body) {
  IdealFabric f;
  const std::vector<Reg> in = load_word(f, inputs);
  f.reset_counters();
  const std::size_t before = f.size();
  const Reg r = body(f, in);
  return {f.steps(), f.size() - before, f.read(r)};
}

void print_comparator(telemetry::JsonWriter& w) {
  using Unary = Reg (*)(Fabric&, Reg);
  using Binary = Reg (*)(Fabric&, Reg, Reg);
  const struct {
    const char* name;
    GateCost declared;
    Unary unary;
    Binary binary;
  } gates[] = {
      {"NOT", cost_not(), gate_not, nullptr},
      {"COPY", cost_copy(), gate_copy, nullptr},
      {"NAND", cost_nand(), nullptr, gate_nand},
      {"AND", cost_and(), nullptr, gate_and},
      {"OR", cost_or(), nullptr, gate_or},
      {"NOR", cost_nor(), nullptr, gate_nor},
      {"XOR", cost_xor(), nullptr, gate_xor},
      {"XOR (destructive)", cost_xor_destructive(), nullptr,
       gate_xor_destructive},
      {"XNOR", cost_xnor(), nullptr, gate_xnor},
  };
  TextTable g({"Gate", "steps (declared)", "steps (IdealFabric)",
               "registers (declared)", "registers (IdealFabric)"});
  w.key("table1_comparator").begin_object();
  w.key("gates").begin_array();
  for (const auto& gate : gates) {
    const Measured m =
        gate.unary != nullptr
            ? measure({true}, [&](Fabric& f, const std::vector<Reg>& in) {
                return gate.unary(f, in[0]);
              })
            : measure({true, false},
                      [&](Fabric& f, const std::vector<Reg>& in) {
                        return gate.binary(f, in[0], in[1]);
                      });
    g.add_row({gate.name, std::to_string(gate.declared.steps),
               std::to_string(m.steps),
               std::to_string(gate.declared.registers),
               std::to_string(m.registers)});
    w.begin_object();
    w.key("gate").value(gate.name);
    w.key("declared_steps").value(std::uint64_t{gate.declared.steps});
    w.key("measured_steps").value(m.steps);
    w.key("declared_registers").value(std::uint64_t{gate.declared.registers});
    w.key("measured_registers").value(std::uint64_t{m.registers});
    w.end_object();
  }
  w.end_array();
  std::cout << g.to_text() << '\n';

  // Table 1's comparator on one nucleotide (2 bits): a1 a0 vs b1 b0.
  using Comparator = Reg (*)(Fabric&, Reg, Reg, Reg, Reg);
  const auto run = [](Comparator circuit, bool a1, bool a0, bool b1,
                      bool b0) {
    return measure({a1, a0, b1, b0},
                   [&](Fabric& f, const std::vector<Reg>& in) {
                     return circuit(f, in[0], in[1], in[2], in[3]);
                   });
  };
  const ComparatorCost cost = comparator_cost();
  TextTable c({"Comparator", "memristors (Table 1)",
               "parallel steps (Table 1)", "serial steps (declared)",
               "serial steps (IdealFabric)"});
  w.key("comparator_cost").begin_object();
  w.key("devices").value(std::uint64_t{cost.devices});
  w.key("parallel_steps").value(std::uint64_t{cost.parallel_steps});
  w.key("serial_steps").value(std::uint64_t{cost.serial_steps});
  w.end_object();
  w.key("circuits").begin_array();
  const struct {
    const char* name;
    Comparator circuit;
  } circuits[] = {{"paper: NAND(a1^b1, a0^b0)", paper_comparator},
                  {"equality: NOR(a1^b1, a0^b0)", equality_comparator}};
  for (const auto& circuit : circuits) {
    const Measured m = run(circuit.circuit, false, false, false, false);
    c.add_row({circuit.name, std::to_string(cost.devices),
               std::to_string(cost.parallel_steps),
               std::to_string(cost.serial_steps), std::to_string(m.steps)});
    w.begin_object();
    w.key("circuit").value(circuit.name);
    w.key("measured_serial_steps").value(m.steps);
    w.end_object();
  }
  w.end_array();
  std::cout << c.to_text() << '\n';

  TextTable t({"a1", "a0", "b1", "b0", "paper", "equality"});
  w.key("truth_table").begin_array();
  for (int v = 0; v < 16; ++v) {
    const bool a1 = (v & 8) != 0, a0 = (v & 4) != 0;
    const bool b1 = (v & 2) != 0, b0 = (v & 1) != 0;
    const bool paper = run(paper_comparator, a1, a0, b1, b0).out;
    const bool equal = run(equality_comparator, a1, a0, b1, b0).out;
    t.add_row({std::to_string(a1), std::to_string(a0), std::to_string(b1),
               std::to_string(b0), std::to_string(paper),
               std::to_string(equal)});
    w.begin_object();
    w.key("a1").value(a1);
    w.key("a0").value(a0);
    w.key("b1").value(b1);
    w.key("b0").value(b0);
    w.key("paper").value(paper);
    w.key("equality").value(equal);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::cout << t.to_text() << '\n'
            << "Table 1's cost sheet is the paper's circuit: 2 XOR (13\n"
               "steps each, in parallel) + NAND (3) = 16 steps, 29 serial.\n"
               "It reads 0 only when both bit positions differ, so it is no\n"
               "equality test; the NOR form is 1 exactly when a1a0 == b1b0\n"
               "and takes 13 + 13 + 9 = 35 serial steps.\n\n";
}

void BM_DeviceLevelImp(benchmark::State& state) {
  for (auto _ : state) {
    DeviceFabric f(fig5a_params());
    const Reg p = f.alloc(), q = f.alloc();
    f.set(p, true);
    f.set(q, false);
    f.imply(p, q);
    benchmark::DoNotOptimize(f.read(q));
  }
}
BENCHMARK(BM_DeviceLevelImp);

void BM_CrsImp(benchmark::State& state) {
  for (auto _ : state) {
    CrsFabric f(presets::crs_cell());
    const Reg p = f.alloc(), q = f.alloc();
    f.set(p, true);
    f.set(q, false);
    f.imply(p, q);
    benchmark::DoNotOptimize(f.read(q));
  }
}
BENCHMARK(BM_CrsImp);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "=== Figure 5: two IMP implementations ===\n\n";
  telemetry::JsonWriter w;
  bench::begin_bench_json(w, "fig5_imply");
  print_truth_tables(w);
  print_costs(w);
  print_adders(w);
  print_comparator(w);
  w.end_object();
  std::ofstream("BENCH_fig5.json") << w.str();
  std::cout << "Wrote BENCH_fig5.json\n\n";
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
