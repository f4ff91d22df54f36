#include "isa/compiler.h"

#include "isa/isa.h"
#include "telemetry/telemetry.h"

namespace memcim::isa {

namespace {

struct CompilerMetrics {
  telemetry::Counter& compiles;
  telemetry::Counter& pulses_removed;
  telemetry::Counter& registers_saved;
  telemetry::Counter& clears_inserted;
  CompilerMetrics()
      : compiles(telemetry::Registry::global().counter("compiler.compiles")),
        pulses_removed(telemetry::Registry::global().counter(
            "compiler.pulses_removed")),
        registers_saved(telemetry::Registry::global().counter(
            "compiler.registers_saved")),
        clears_inserted(telemetry::Registry::global().counter(
            "compiler.clears_inserted")) {}
};

CompilerMetrics& compiler_metrics() {
  static CompilerMetrics m;
  return m;
}

PackedRunOptions run_options_for(const CompileOptions& options,
                                 const PackedProgram& compiled) {
  PackedRunOptions run;
  run.cost = options.cost;
  run.block_grain = packing_block_grain(compiled);
  return run;
}

}  // namespace

CompiledProgram compile(const CimProgram& source,
                        const CompileOptions& options) {
  check_logic_cost_model(options.cost);
  validate_program(source);
  CompiledProgram out;
  out.source = source;
  out.stats.pulses_before = source.instructions.size();
  out.stats.registers_before = source.registers;
  out.optimized = optimize_program(source, &out.stats);
  out.packed_source = compile_program(out.source);
  out.packed_optimized = compile_program(out.optimized);
  out.run_source = run_options_for(options, out.packed_source);
  out.run_optimized = run_options_for(options, out.packed_optimized);
  if (telemetry::enabled()) {
    CompilerMetrics& m = compiler_metrics();
    m.compiles.add(1);
    m.pulses_removed.add(out.stats.pulses_removed());
    m.registers_saved.add(out.stats.registers_saved());
    m.clears_inserted.add(out.stats.clears_inserted);
  }
  return out;
}

}  // namespace memcim::isa
