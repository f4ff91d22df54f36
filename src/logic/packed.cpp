#include "logic/packed.h"

#include <algorithm>
#include <atomic>
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

std::uint64_t popcount(std::uint64_t x) {
  return static_cast<std::uint64_t>(std::popcount(x));
}

/// Exact total of the set bits in a stream of 64-lane words without a
/// popcount per word: every lane keeps a 4-bit count in four bit planes
/// (c<p> holds bit p of each lane's count), and after 15 words, the most
/// a 4-bit count can hold, the planes fold into the total.
class BitTally {
 public:
  void add(std::uint64_t word) {
    // Ripple the carries up from the old planes, then flip the planes.
    const std::uint64_t carry1 = c0_ & word;
    const std::uint64_t carry2 = c1_ & carry1;
    const std::uint64_t carry3 = c2_ & carry2;
    c0_ ^= word;
    c1_ ^= carry1;
    c2_ ^= carry2;
    c3_ ^= carry3;
    if (++pending_ == kFoldEvery) fold();
  }

  [[nodiscard]] std::uint64_t total() {
    fold();
    return total_;
  }

 private:
  static constexpr int kFoldEvery = 15;

  void fold() {
    total_ += popcount(c0_) + 2 * popcount(c1_) + 4 * popcount(c2_) +
              8 * popcount(c3_);
    c0_ = c1_ = c2_ = c3_ = 0;
    pending_ = 0;
  }

  std::uint64_t c0_ = 0, c1_ = 0, c2_ = 0, c3_ = 0;
  std::uint64_t total_ = 0;
  int pending_ = 0;
};

/// Replay `compiled` on one block of windows: `in` holds the block's
/// input lane words, `mask` its active lanes, `regs` one word per
/// register, and `out` receives one lane word per result register.
/// Returns the register-value changes summed over the block's lanes.
std::uint64_t replay_block(const PackedProgram& compiled,
                           const std::uint64_t* in, std::uint64_t mask,
                           std::uint64_t* regs, std::uint64_t* out) {
  // Every register starts at 0 and only kSetFalse turns a 1 into a 0,
  // so in every lane a register's flips are its final value plus twice
  // the 1s kSetFalse clears: the book needs the cleared words and the
  // final register words, not a flip mask per instruction.
  BitTally cleared;
  // Input load: the scalar path issues one fabric.set per input per
  // window; packed, that is one lane-word write per input register.
  for (std::size_t i = 0; i < compiled.inputs; ++i) regs[i] = in[i] & mask;
  std::fill(regs + compiled.inputs, regs + compiled.registers, 0);
  for (const CimInstruction& inst : compiled.instructions) {
    switch (inst.op) {
      case CimOp::kSetFalse:
        // A fresh register is already 0: clearing it books nothing.
        if (regs[inst.a] != 0) {
          cleared.add(regs[inst.a]);
          regs[inst.a] = 0;
        }
        break;
      case CimOp::kSetTrue:
        regs[inst.a] = mask;
        break;
      case CimOp::kImply:
        regs[inst.b] |= ~regs[inst.a] & mask;
        break;
    }
  }
  for (std::size_t o = 0; o < compiled.outputs.size(); ++o)
    out[o] = regs[compiled.outputs[o]];
  BitTally final_ones;
  for (std::size_t r = 0; r < compiled.registers; ++r) final_ones.add(regs[r]);
  return 2 * cleared.total() + final_ones.total();
}

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

std::vector<bool> PackedRunResult::wide(std::size_t w) const {
  MEMCIM_CHECK_MSG(w < outputs.size(),
                   "window " << w << " of " << outputs.size());
  const std::uint64_t* block =
      result_words.data() + w / kPackedLanes * results;
  std::vector<bool> bits(results);
  for (std::size_t o = 0; o < results; ++o)
    bits[o] = ((block[o] >> (w % kPackedLanes)) & 1u) != 0;
  return bits;
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
  const std::size_t n_out = compiled.outputs.size();
  PackedRunResult result;
  result.results = n_out;
  result.result_words.assign(blocks * n_out, 0);

  // Blocks write disjoint result words; the flip total is a u64 sum, so
  // it is the same whichever worker ran which block.
  std::atomic<std::uint64_t> transitions_total{0};
  const auto run_blocks = [&](std::size_t b0, std::size_t b1) {
    std::vector<std::uint64_t> regs(compiled.registers);
    std::uint64_t flips = 0;
    for (std::size_t b = b0; b < b1; ++b) {
      const std::size_t lanes =
          std::min(kPackedLanes, windows - b * kPackedLanes);
      const std::uint64_t mask = lanes == kPackedLanes
                                     ? ~std::uint64_t{0}
                                     : (std::uint64_t{1} << lanes) - 1;
      flips += replay_block(compiled, lane_words.data() + b * compiled.inputs,
                            mask, regs.data(),
                            result.result_words.data() + b * n_out);
    }
    transitions_total += flips;
  };
  const std::size_t grain = std::max<std::size_t>(1, options.block_grain);
  parallel_for_chunks(0, blocks, grain, run_blocks);
  result.transitions = transitions_total;
  result.outputs.resize(windows);
  for (std::size_t w = 0; w < windows; ++w) {
    const std::uint64_t first = result.result_words[w / kPackedLanes * n_out];
    result.outputs[w] = ((first >> (w % kPackedLanes)) & 1u) != 0;
  }

  // Cost books, reconciled to what a scalar run_program_simd would have
  // accrued for the same program on an IdealFabric with this cost model
  // (every window executes the identical stream, so totals are exact
  // multiples of the per-window counts).
  const std::uint64_t w64 = static_cast<std::uint64_t>(windows);
  const std::uint64_t sets_pw =
      static_cast<std::uint64_t>(compiled.inputs) + compiled.sets_per_window;
  const std::uint64_t writes_pw = sets_pw + compiled.implies_per_window;
  // Every instruction is one step: the engine mirrors IdealFabric.
  const std::uint64_t steps_pw = writes_pw;
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
    pm.transitions.add(result.transitions);
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

}  // namespace memcim
