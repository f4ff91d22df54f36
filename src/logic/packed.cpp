#include "logic/packed.h"

#include <algorithm>
#include <bit>

#include "common/error.h"
#include "common/parallel.h"
#include "telemetry/telemetry.h"

namespace memcim {

namespace {

struct PackedMetrics {
  telemetry::Counter& runs;
  telemetry::Counter& windows;
  telemetry::Counter& lane_blocks;
  telemetry::Counter& word_ops;
  telemetry::Counter& transitions;
  PackedMetrics()
      : runs(telemetry::Registry::global().counter("logic.packed.runs")),
        windows(telemetry::Registry::global().counter("logic.packed.windows")),
        lane_blocks(
            telemetry::Registry::global().counter("logic.packed.lane_blocks")),
        word_ops(
            telemetry::Registry::global().counter("logic.packed.word_ops")),
        transitions(telemetry::Registry::global().counter(
            "logic.packed.transitions")) {}
};

PackedMetrics& packed_metrics() {
  static PackedMetrics m;
  return m;
}

/// What one 64-lane block produces; reduced serially in block order.
struct BlockResult {
  std::vector<std::uint64_t> outputs;      ///< one lane word per result reg
  std::vector<std::uint64_t> transitions;  ///< per lane in the block
};

}  // namespace

PackedProgram compile_program(const CimProgram& program) {
  MEMCIM_CHECK_MSG(program.registers > 0, "program has no registers");
  MEMCIM_CHECK_MSG(program.inputs <= program.registers,
                   "program declares " << program.inputs << " inputs over "
                                       << program.registers << " registers");
  MEMCIM_CHECK_MSG(program.output < program.registers,
                   "program output register " << program.output
                                              << " out of range");
  PackedProgram compiled;
  compiled.registers = program.registers;
  compiled.inputs = program.inputs;
  compiled.output = program.output;
  compiled.outputs = result_registers(program);
  for (const Reg r : compiled.outputs)
    MEMCIM_CHECK_MSG(r < program.registers,
                     "program output register " << r << " out of range");
  compiled.instructions.reserve(program.instructions.size());
  for (const CimInstruction& inst : program.instructions) {
    MEMCIM_CHECK_MSG(inst.a < program.registers,
                     "instruction register a=" << inst.a << " out of range");
    switch (inst.op) {
      case CimOp::kSetFalse:
      case CimOp::kSetTrue:
        ++compiled.sets_per_window;
        break;
      case CimOp::kImply:
        MEMCIM_CHECK_MSG(inst.b < program.registers,
                         "instruction register b=" << inst.b
                                                   << " out of range");
        ++compiled.implies_per_window;
        break;
    }
    compiled.instructions.push_back(inst);
  }
  return compiled;
}

PackedFabric::PackedFabric(std::size_t registers, std::size_t lanes)
    : lanes_(lanes),
      lane_mask_(lanes >= kPackedLanes ? ~std::uint64_t{0}
                                       : (std::uint64_t{1} << lanes) - 1),
      words_(registers, 0) {
  MEMCIM_CHECK_MSG(registers > 0, "packed fabric needs >= 1 register");
  MEMCIM_CHECK_MSG(lanes >= 1 && lanes <= kPackedLanes,
                   "packed fabric lanes must be 1.." << kPackedLanes
                                                     << ", got " << lanes);
}

void PackedFabric::set_lanes(Reg r, std::uint64_t bits) {
  MEMCIM_CHECK(r < words_.size());
  bits &= lane_mask_;
  const std::uint64_t delta = words_[r] ^ bits;
  words_[r] = bits;
  count_transitions(delta);
}

void PackedFabric::set_all(Reg r, bool value) {
  MEMCIM_CHECK(r < words_.size());
  const std::uint64_t next = value ? lane_mask_ : 0;
  const std::uint64_t delta = words_[r] ^ next;
  words_[r] = next;
  count_transitions(delta);
}

void PackedFabric::imply(Reg p, Reg q) {
  MEMCIM_CHECK(p < words_.size());
  MEMCIM_CHECK(q < words_.size());
  const std::uint64_t next = (words_[q] | ~words_[p]) & lane_mask_;
  const std::uint64_t delta = words_[q] ^ next;
  words_[q] = next;
  count_transitions(delta);
}

std::uint64_t PackedFabric::read(Reg r) const {
  MEMCIM_CHECK(r < words_.size());
  return words_[r];
}

void PackedFabric::count_transitions(std::uint64_t delta) {
  transitions_total_ += static_cast<std::uint64_t>(std::popcount(delta));
  // Vertical ripple-carry add of the 64-lane increment mask: amortized
  // ~2 word ops per micro-op instead of up to 64 scalar increments.
  std::uint64_t carry = delta;
  for (std::size_t p = 0; carry != 0; ++p) {
    if (p == planes_.size()) planes_.push_back(0);
    const std::uint64_t old = planes_[p];
    planes_[p] = old ^ carry;
    carry &= old;
  }
}

std::vector<std::uint64_t> PackedFabric::transitions_per_lane() const {
  std::vector<std::uint64_t> out(lanes_, 0);
  for (std::size_t p = 0; p < planes_.size(); ++p)
    for (std::size_t w = 0; w < lanes_; ++w)
      out[w] |= ((planes_[p] >> w) & 1u) << p;
  return out;
}

PackedRunResult run_program_packed(const PackedProgram& compiled,
                                   std::size_t windows,
                                   std::span<const std::uint64_t> lane_words,
                                   const PackedRunOptions& options) {
  MEMCIM_CHECK_MSG(windows > 0, "packed run needs at least one window");
  const std::size_t blocks = packed_lane_blocks(windows);
  MEMCIM_CHECK_MSG(lane_words.size() == blocks * compiled.inputs,
                   "program expects " << blocks * compiled.inputs
                                      << " input lane words for " << windows
                                      << " windows, got "
                                      << lane_words.size());
  const std::size_t n_out = compiled.outputs.empty()
                                ? std::size_t{1}
                                : compiled.outputs.size();
  std::vector<BlockResult> per_block(blocks);

  const std::size_t grain = std::max<std::size_t>(1, options.block_grain);
  parallel_for_chunks(0, blocks, grain, [&](std::size_t b0, std::size_t b1) {
    for (std::size_t b = b0; b < b1; ++b) {
      const std::size_t base = b * kPackedLanes;
      const std::size_t lanes = std::min(kPackedLanes, windows - base);
      PackedFabric fabric(compiled.registers, lanes);
      // Input load: the scalar path issues one fabric.set per input per
      // window; packed, that is one lane-word write per input register.
      for (std::size_t i = 0; i < compiled.inputs; ++i)
        fabric.set_lanes(i, lane_words[b * compiled.inputs + i]);
      for (const CimInstruction& inst : compiled.instructions) {
        switch (inst.op) {
          case CimOp::kSetFalse:
            fabric.set_all(inst.a, false);
            break;
          case CimOp::kSetTrue:
            fabric.set_all(inst.a, true);
            break;
          case CimOp::kImply:
            fabric.imply(inst.a, inst.b);
            break;
        }
      }
      per_block[b].outputs.reserve(n_out);
      if (compiled.outputs.empty()) {
        per_block[b].outputs.push_back(fabric.read(compiled.output));
      } else {
        for (const Reg r : compiled.outputs)
          per_block[b].outputs.push_back(fabric.read(r));
      }
      per_block[b].transitions = fabric.transitions_per_lane();
    }
  });

  // Serial reduction in block order: per-window payloads concatenate
  // deterministically regardless of which worker ran which block.
  PackedRunResult result;
  result.outputs.reserve(windows);
  result.wide.reserve(windows);
  result.transitions.reserve(windows);
  std::uint64_t transitions_total = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t base = b * kPackedLanes;
    const std::size_t lanes = std::min(kPackedLanes, windows - base);
    for (std::size_t w = 0; w < lanes; ++w) {
      result.outputs.push_back(((per_block[b].outputs[0] >> w) & 1u) != 0);
      std::vector<bool> bits;
      bits.reserve(n_out);
      for (std::size_t o = 0; o < n_out; ++o)
        bits.push_back(((per_block[b].outputs[o] >> w) & 1u) != 0);
      result.wide.push_back(std::move(bits));
      result.transitions.push_back(per_block[b].transitions[w]);
      transitions_total += per_block[b].transitions[w];
    }
  }

  // Cost books, reconciled to what a scalar run_program_simd would have
  // accrued for the same program on a cost-model backend with these
  // step quanta (every window executes the identical stream, so totals
  // are exact multiples of the per-window counts).
  const std::uint64_t w64 = static_cast<std::uint64_t>(windows);
  const std::uint64_t sets_pw =
      static_cast<std::uint64_t>(compiled.inputs) + compiled.sets_per_window;
  const std::uint64_t writes_pw = sets_pw + compiled.implies_per_window;
  const std::uint64_t steps_pw = sets_pw * options.set_step_cost +
                                 compiled.implies_per_window *
                                     options.imply_step_cost;
  result.steps_per_window = steps_pw;
  result.writes = w64 * writes_pw;
  result.latency = options.cost.t_step * static_cast<double>(steps_pw);
  result.energy = options.cost.e_write * static_cast<double>(result.writes);

  if (telemetry::enabled()) {
    detail::FabricMetrics& fm = detail::fabric_metrics();
    fm.sets.add(w64 * sets_pw);
    fm.implies.add(w64 * compiled.implies_per_window);
    fm.reads.add(w64 * static_cast<std::uint64_t>(n_out));
    fm.steps.add(w64 * steps_pw);
    fm.writes.add(result.writes);
    detail::ProgramMetrics& prm = detail::program_metrics();
    prm.runs.add(w64);
    prm.instructions.add(w64 * compiled.length());
    prm.imply_steps.add(w64 * compiled.implies_per_window);
    prm.simd_windows.add(w64);
    PackedMetrics& pm = packed_metrics();
    pm.runs.add(1);
    pm.windows.add(w64);
    pm.lane_blocks.add(blocks);
    // One word op per input load, per instruction, and per output read
    // in every block.
    pm.word_ops.add(static_cast<std::uint64_t>(blocks) *
                    (static_cast<std::uint64_t>(compiled.inputs) +
                     compiled.length() + n_out));
    pm.transitions.add(transitions_total);
  }
  return result;
}

PackedRunResult run_program_packed(
    const PackedProgram& compiled,
    const std::vector<std::vector<bool>>& input_sets,
    const PackedRunOptions& options) {
  MEMCIM_CHECK_MSG(!input_sets.empty(),
                   "packed run needs at least one window");
  const std::size_t inputs = compiled.inputs;
  std::vector<std::uint64_t> lane_words(
      packed_lane_blocks(input_sets.size()) * inputs, 0);
  for (std::size_t w = 0; w < input_sets.size(); ++w) {
    MEMCIM_CHECK_MSG(input_sets[w].size() == inputs,
                     "program expects " << inputs << " inputs, got "
                                        << input_sets[w].size());
    std::uint64_t* block = lane_words.data() + (w / kPackedLanes) * inputs;
    const std::uint64_t lane = std::uint64_t{1} << (w % kPackedLanes);
    for (std::size_t i = 0; i < inputs; ++i)
      if (input_sets[w][i]) block[i] |= lane;
  }
  return run_program_packed(compiled, input_sets.size(), lane_words, options);
}

PackedRunResult run_program_packed(
    const CimProgram& program,
    const std::vector<std::vector<bool>>& input_sets,
    const PackedRunOptions& options) {
  return run_program_packed(compile_program(program), input_sets, options);
}

}  // namespace memcim
