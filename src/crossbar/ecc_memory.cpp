#include "crossbar/ecc_memory.h"

#include "common/error.h"

namespace memcim {

namespace {

// Codeword layout (index 0..12): index 0 = overall parity; indices
// 1..12 are the classic Hamming positions, with parity bits at the
// powers of two (1, 2, 4, 8) and data bits at the remaining positions
// (3, 5, 6, 7, 9, 10, 11, 12).
constexpr std::size_t kDataPositions[8] = {3, 5, 6, 7, 9, 10, 11, 12};

bool parity_of_group(const std::array<bool, kEccCodewordBits>& cw,
                     std::size_t mask) {
  bool p = false;
  for (std::size_t pos = 1; pos <= 12; ++pos)
    if ((pos & mask) != 0 && cw[pos]) p = !p;
  return p;
}

}  // namespace

std::array<bool, kEccCodewordBits> ecc_encode(std::uint8_t data) {
  std::array<bool, kEccCodewordBits> cw{};
  for (std::size_t i = 0; i < 8; ++i)
    cw[kDataPositions[i]] = ((data >> i) & 1) != 0;
  // Hamming parities: each parity bit makes its mask-group even.
  for (std::size_t mask : {1u, 2u, 4u, 8u})
    cw[mask] = parity_of_group(cw, mask);
  // Overall parity over positions 1..12 (even total including cw[0]).
  bool total = false;
  for (std::size_t pos = 1; pos <= 12; ++pos)
    if (cw[pos]) total = !total;
  cw[0] = total;
  return cw;
}

EccDecodeResult ecc_decode(const std::array<bool, kEccCodewordBits>& codeword) {
  std::array<bool, kEccCodewordBits> cw = codeword;
  // Syndrome: XOR of the four group parities (a parity bit participates
  // in its own group, so a correct word has all groups even).
  std::size_t syndrome = 0;
  for (std::size_t mask : {1u, 2u, 4u, 8u})
    if (parity_of_group(cw, mask)) syndrome |= mask;
  bool overall = cw[0];
  for (std::size_t pos = 1; pos <= 12; ++pos)
    if (cw[pos]) overall = !overall;
  // overall == true means odd parity = some single error (incl. cw[0]).

  EccDecodeResult result;
  if (syndrome > 12) {
    // Syndromes 13–15 name no codeword position: only a ≥3-bit error
    // can produce them — flag, don't touch.
    result.uncorrectable = true;
  } else if (syndrome != 0 && overall) {
    // Single error at `syndrome` — correct it.
    cw[syndrome] = !cw[syndrome];
    result.corrected = true;
  } else if (syndrome != 0 && !overall) {
    // Two errors: detectable, not correctable.
    result.uncorrectable = true;
  } else if (syndrome == 0 && overall) {
    // The overall parity bit itself flipped.
    cw[0] = !cw[0];
    result.corrected = true;
  }
  for (std::size_t i = 0; i < 8; ++i)
    if (cw[kDataPositions[i]]) result.data |= static_cast<std::uint8_t>(1u << i);
  return result;
}

EccCrsMemory::EccCrsMemory(std::size_t rows, const CrsCellParams& cell_params)
    : memory_(rows, kEccCodewordBits, cell_params) {}

void EccCrsMemory::write_byte(std::size_t row, std::uint8_t value) {
  const auto cw = ecc_encode(value);
  for (std::size_t i = 0; i < kEccCodewordBits; ++i)
    memory_.write(row, i, cw[i]);
}

EccDecodeResult EccCrsMemory::read_byte(std::size_t row) {
  std::array<bool, kEccCodewordBits> cw{};
  for (std::size_t i = 0; i < kEccCodewordBits; ++i)
    cw[i] = memory_.read(row, i);
  EccDecodeResult result = ecc_decode(cw);
  if (result.corrected) {
    ++corrected_;
    // Scrub: rewrite the corrected codeword so the error does not
    // accumulate into an uncorrectable pair.
    write_byte(row, result.data);
  }
  if (result.uncorrectable) ++uncorrectable_;
  return result;
}

void EccCrsMemory::inject_error(std::size_t row, std::size_t bit) {
  MEMCIM_CHECK_MSG(bit < kEccCodewordBits, "bit index out of codeword");
  const bool current = memory_.read(row, bit);
  memory_.write(row, bit, !current);
}

void EccCrsMemory::inject_stuck(std::size_t row, std::size_t bit,
                                bool stuck_one) {
  MEMCIM_CHECK_MSG(bit < kEccCodewordBits, "bit index out of codeword");
  memory_.inject_stuck(row, bit, stuck_one);
}

}  // namespace memcim
