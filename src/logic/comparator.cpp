#include "logic/comparator.h"

#include <bit>

#include "common/error.h"
#include "common/rng.h"
#include "logic/gates.h"
#include "logic/packed.h"
#include "logic/program.h"

namespace memcim {

ComparatorCost comparator_cost() { return {}; }

Reg paper_comparator(Fabric& f, Reg a1, Reg a0, Reg b1, Reg b0) {
  const Reg x1 = gate_xor(f, a1, b1);
  const Reg x0 = gate_xor(f, a0, b0);
  return gate_nand(f, x1, x0);
}

Reg equality_comparator(Fabric& f, Reg a1, Reg a0, Reg b1, Reg b0) {
  const Reg x1 = gate_xor(f, a1, b1);
  const Reg x0 = gate_xor(f, a0, b0);
  return gate_nor(f, x1, x0);
}

Reg word_equality(Fabric& f, std::span<const Reg> a, std::span<const Reg> b) {
  MEMCIM_CHECK_MSG(a.size() == b.size() && !a.empty(),
                   "word_equality needs equal non-empty operands");
  Reg acc = gate_xnor(f, a[0], b[0]);
  for (std::size_t i = 1; i < a.size(); ++i) {
    const Reg eq_i = gate_xnor(f, a[i], b[i]);
    acc = gate_and(f, acc, eq_i);
  }
  return acc;
}

namespace {

std::uint64_t popcount(std::uint64_t x) {
  return static_cast<std::uint64_t>(std::popcount(x));
}

/// word_equality over `bits`-bit operands, recorded (which books
/// nothing) and compiled for the packed engine.
PackedProgram probe_program(std::size_t bits) {
  return compile_program(record_program(
      2 * bits, [bits](Fabric& f, const std::vector<Reg>& in) {
        const std::span<const Reg> a(in.data(), bits);
        const std::span<const Reg> b(in.data() + bits, bits);
        return word_equality(f, a, b);
      }));
}

/// Flips of one window of `program` whose input i is bit i of `inputs`.
std::uint64_t window_flips(const PackedProgram& program,
                           std::uint64_t inputs) {
  std::vector<std::uint64_t> lanes(program.inputs);
  for (std::size_t i = 0; i < lanes.size(); ++i) lanes[i] = (inputs >> i) & 1;
  return replay_program_packed(program, 1, lanes).transitions;
}

WordEqualityFlips derive_word_equality_flips() {
  WordEqualityFlips flips;
  // One bit: inputs key, row.  A window's flips less its input 1s are
  // its one XNOR's.
  const PackedProgram one = probe_program(1);
  for (std::uint64_t in = 0; in < 4; ++in)
    flips.xnor[in & 1][in >> 1] = window_flips(one, in) - popcount(in);
  // Two bits: inputs key0, key1, row0, row1.  What the two XNORs leave
  // is the chain's one AND, of (key0 == row0, key1 == row1).
  const PackedProgram two = probe_program(2);
  for (std::uint64_t in = 0; in < 16; ++in) {
    const std::uint64_t chain = window_flips(two, in) - popcount(in) -
                                flips.xnor[in & 1][(in >> 2) & 1] -
                                flips.xnor[(in >> 1) & 1][in >> 3];
    if (in == 0) flips.chain = chain;
    MEMCIM_CHECK_MSG(chain == flips.chain,
                     "word_equality's AND flips " << chain << " on inputs "
                                                  << in << ", not "
                                                  << flips.chain);
  }
  return flips;
}

}  // namespace

std::uint64_t WordEqualityFlips::total(std::size_t bits, std::uint64_t rows,
                                       std::uint64_t key_ones,
                                       std::uint64_t row_ones,
                                       std::uint64_t shared_ones) const {
  // Bit positions over all rows, by (key bit, row bit).
  const std::uint64_t n11 = shared_ones;
  const std::uint64_t n10 = rows * key_ones - shared_ones;
  const std::uint64_t n01 = row_ones - shared_ones;
  const std::uint64_t n00 = rows * bits - n11 - n10 - n01;
  return rows * key_ones + row_ones + xnor[0][0] * n00 + xnor[0][1] * n01 +
         xnor[1][0] * n10 + xnor[1][1] * n11 + rows * (bits - 1) * chain;
}

WordEqualityFlips bind_word_equality_flips(const PackedProgram& program,
                                           std::size_t bits) {
  MEMCIM_CHECK_MSG(bits >= 1 && program.inputs == 2 * bits,
                   "not a " << bits << "-bit word equality program");
  static const WordEqualityFlips flips = derive_word_equality_flips();

  // The key alternates 0, 1, 0, ... from its first bit, so every table
  // entry shows once the program has two bits.  Lane w holds row
  // w = key ^ flip_w: lanes 0-7 equal the key, lanes 8-15, 16-23 and
  // 24-31 differ in its first, middle and last bit, lanes 32-63 are
  // random.
  std::vector<std::uint64_t> lanes(2 * bits);
  std::uint64_t key_ones = 0, row_ones = 0, shared_ones = 0, differ = 0;
  for (std::size_t i = 0; i < bits; ++i) {
    const std::uint64_t key = i % 2 != 0 ? ~std::uint64_t{0} : 0;
    std::uint64_t flip = splitmix64(i) & 0xFFFFFFFF00000000ull;
    if (i == 0) flip |= 0xFF00ull;
    if (i == bits / 2) flip |= 0xFF0000ull;
    if (i == bits - 1) flip |= 0xFF000000ull;
    lanes[i] = key;
    lanes[bits + i] = key ^ flip;
    key_ones += key & 1;
    row_ones += popcount(key ^ flip);
    shared_ones += popcount(key & ~flip);
    differ |= flip;
  }
  const PackedRunResult probe =
      replay_program_packed(program, kPackedLanes, lanes);
  const std::uint64_t want =
      flips.total(bits, kPackedLanes, key_ones, row_ones, shared_ones);
  MEMCIM_CHECK_MSG(probe.result_words[0] == ~differ,
                   "the " << bits << "-bit compare probe matched "
                          << probe.result_words[0] << ", not " << ~differ);
  MEMCIM_CHECK_MSG(probe.transitions == want,
                   "the " << bits << "-bit compare probe flipped "
                          << probe.transitions << " registers, the closed "
                          << "form " << want);
  return flips;
}

std::vector<Reg> load_word(Fabric& f, const std::vector<bool>& bits) {
  std::vector<Reg> regs;
  regs.reserve(bits.size());
  for (bool bit : bits) {
    const Reg r = f.alloc();
    f.set(r, bit);
    regs.push_back(r);
  }
  return regs;
}

}  // namespace memcim
