#include "isa/kernels.h"

#include <span>

#include "common/error.h"
#include "logic/adder.h"
#include "logic/comparator.h"
#include "logic/gates.h"

namespace memcim::isa {

std::shared_ptr<const CompiledProgram> cached_word_equality(
    std::size_t bits, const CompileOptions& options) {
  MEMCIM_CHECK_MSG(bits >= 1, "word equality needs >= 1 bit");
  ProgramKey key;
  key.workload = "word_equality";
  key.shape = bits;
  key.fabric_sig = fabric_signature(options);
  return ProgramCache::global().get_or_compile(
      key,
      [bits] {
        return record_program(2 * bits, [bits](Fabric& f,
                                               const std::vector<Reg>& in) {
          const std::span<const Reg> a(in.data(), bits);
          const std::span<const Reg> b(in.data() + bits, bits);
          return word_equality(f, a, b);
        });
      },
      options);
}

std::shared_ptr<const CompiledProgram> cached_masked_equality(
    std::size_t bits, const CompileOptions& options) {
  MEMCIM_CHECK_MSG(bits >= 1, "masked equality needs >= 1 bit");
  ProgramKey key;
  key.workload = "masked_equality";
  key.shape = bits;
  key.fabric_sig = fabric_signature(options);
  return ProgramCache::global().get_or_compile(
      key,
      [bits] {
        return record_program(
            3 * bits + 1, [bits](Fabric& f, const std::vector<Reg>& in) {
              // Inputs: key | value | care | valid.
              Reg acc = in[3 * bits];  // valid gates the whole row
              for (std::size_t i = 0; i < bits; ++i) {
                const Reg eq = gate_xnor(f, in[i], in[bits + i]);
                // care => equal in ONE extra pulse: eq <- !care | eq.
                f.imply(in[2 * bits + i], eq);
                acc = gate_and(f, acc, eq);
              }
              return acc;
            });
      },
      options);
}

std::shared_ptr<const CompiledProgram> cached_ripple_adder(
    std::size_t bits, const CompileOptions& options) {
  MEMCIM_CHECK_MSG(bits >= 1 && bits <= 63, "adder width must be 1..63 bits");
  ProgramKey key;
  key.workload = "ripple_adder";
  key.shape = bits;
  key.fabric_sig = fabric_signature(options);
  return ProgramCache::global().get_or_compile(
      key,
      [bits] {
        return record_program_multi(
            2 * bits, [bits](Fabric& f, const std::vector<Reg>& in) {
              const std::span<const Reg> a(in.data(), bits);
              const std::span<const Reg> b(in.data() + bits, bits);
              const RippleAdderResult r = ripple_adder(f, a, b);
              std::vector<Reg> outs = r.sum;
              outs.push_back(r.carry_out);
              return outs;
            });
      },
      options);
}

}  // namespace memcim::isa
