// Binary wire format: encode/decode round-trips every valid program
// exactly (seeded property, 200+ programs), and the decoder rejects
// corrupt images with a diagnostic instead of mis-parsing them.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "isa_test_util.h"
#include "support/isa_encoding.h"

namespace memcim::isa {
namespace {

using testutil::expect_programs_equal;
using testutil::random_program;

TEST(IsaEncoding, RoundTripsRandomProgramsExactly) {
  Rng rng(0x15A0ull);
  for (int trial = 0; trial < 200; ++trial) {
    const auto inputs = static_cast<std::size_t>(rng.uniform_int(0, 4));
    const auto scratch = static_cast<std::size_t>(rng.uniform_int(1, 9));
    const auto length = static_cast<std::size_t>(rng.uniform_int(0, 40));
    const CimProgram p = random_program(inputs, scratch, length, rng,
                                        /*multi_output=*/true);
    const CimProgram via_words = decode_program(encode_program(p));
    expect_programs_equal(p, via_words);
    const CimProgram via_bytes = decode_program_bytes(encode_program_bytes(p));
    expect_programs_equal(p, via_bytes);
  }
}

TEST(IsaEncoding, ImageLayoutMatchesTheDocumentedHeader) {
  CimProgram p;
  p.registers = 5;
  p.inputs = 2;
  p.output = 4;
  p.instructions = {{CimOp::kSetFalse, 2, 0},
                    {CimOp::kImply, 0, 2},
                    {CimOp::kSetTrue, 4, 0}};
  const std::vector<std::uint32_t> words = encode_program(p);
  ASSERT_EQ(words.size(), kHeaderWords + 1 + p.instructions.size());
  EXPECT_EQ(words[0], kMagic);
  EXPECT_EQ(words[1], kVersion);
  EXPECT_EQ(words[2], 5u);  // registers
  EXPECT_EQ(words[3], 2u);  // inputs
  EXPECT_EQ(words[4], 0u);  // output count (0 => one legacy register)
  EXPECT_EQ(words[5], 3u);  // instructions
  EXPECT_EQ(words[6], 4u);  // the legacy output register
  // op<<28 | a<<14 | b
  EXPECT_EQ(words[7], (0u << 28) | (2u << 14));
  EXPECT_EQ(words[8], (2u << 28) | (0u << 14) | 2u);
  EXPECT_EQ(words[9], (1u << 28) | (4u << 14));
}

TEST(IsaEncoding, MultiOutputImageCarriesTheResultList) {
  CimProgram p;
  p.registers = 6;
  p.inputs = 2;
  p.outputs = {3, 4, 5};
  p.output = 3;
  const std::vector<std::uint32_t> words = encode_program(p);
  ASSERT_EQ(words.size(), kHeaderWords + 3);
  EXPECT_EQ(words[4], 3u);
  EXPECT_EQ(words[6], 3u);
  EXPECT_EQ(words[7], 4u);
  EXPECT_EQ(words[8], 5u);
}

std::vector<std::uint32_t> small_image() {
  CimProgram p;
  p.registers = 3;
  p.inputs = 1;
  p.output = 2;
  p.instructions = {{CimOp::kImply, 0, 2}};
  return encode_program(p);
}

TEST(IsaEncoding, RejectsCorruptImages) {
  const std::vector<std::uint32_t> good = small_image();
  EXPECT_NO_THROW((void)decode_program(good));

  std::vector<std::uint32_t> bad = good;
  bad[0] ^= 1u;  // magic
  EXPECT_THROW((void)decode_program(bad), Error);

  bad = good;
  bad[1] = kVersion + 1;  // future version
  EXPECT_THROW((void)decode_program(bad), Error);

  bad = good;
  bad.pop_back();  // truncated
  EXPECT_THROW((void)decode_program(bad), Error);

  bad = good;
  bad.push_back(0u);  // trailing garbage
  EXPECT_THROW((void)decode_program(bad), Error);

  EXPECT_THROW((void)decode_program({}), Error);

  bad = good;
  bad.back() = 3u << 28;  // invalid opcode
  EXPECT_THROW((void)decode_program(bad), Error);

  bad = good;
  bad.back() = (0u << 28) | (1u << 14) | 1u;  // SET with nonzero b field
  EXPECT_THROW((void)decode_program(bad), Error);

  bad = good;
  bad.back() = (2u << 28) | (7u << 14) | 2u;  // register out of range
  EXPECT_THROW((void)decode_program(bad), Error);
}

TEST(IsaEncoding, RejectsRaggedByteStreams) {
  std::vector<std::uint8_t> bytes = encode_program_bytes(
      decode_program(small_image()));
  bytes.pop_back();
  EXPECT_THROW((void)decode_program_bytes(bytes), Error);
}

TEST(IsaValidation, RejectsStructurallyInvalidPrograms) {
  CimProgram p;
  EXPECT_THROW(validate_program(p), Error);  // zero registers

  p.registers = kMaxRegisters + 1;
  EXPECT_THROW(validate_program(p), Error);  // over the 14-bit field

  p.registers = 4;
  p.inputs = 5;
  EXPECT_THROW(validate_program(p), Error);  // inputs > registers

  p.inputs = 2;
  p.output = 4;
  EXPECT_THROW(validate_program(p), Error);  // output out of range

  p.output = 0;
  p.outputs = {1, 4};
  EXPECT_THROW(validate_program(p), Error);  // listed output out of range

  p.outputs.clear();
  p.instructions = {{CimOp::kSetTrue, 4, 0}};
  EXPECT_THROW(validate_program(p), Error);  // operand a out of range

  p.instructions = {{CimOp::kImply, 0, 4}};
  EXPECT_THROW(validate_program(p), Error);  // operand b out of range

  p.instructions = {{CimOp::kImply, 0, 3}};
  EXPECT_NO_THROW(validate_program(p));
}

}  // namespace
}  // namespace memcim::isa
