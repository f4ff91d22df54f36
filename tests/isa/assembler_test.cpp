// Text format: disassemble/assemble round-trips every valid program
// (seeded property, 200+ programs), hand-written listings parse with
// comments and flexible whitespace, and malformed input fails with a
// line-numbered diagnostic.
#include <gtest/gtest.h>

#include <string>

#include "common/error.h"
#include "common/rng.h"
#include "isa_test_util.h"
#include "support/isa_assembler.h"

namespace memcim::isa {
namespace {

using testutil::expect_programs_equal;
using testutil::random_program;

TEST(IsaAssembler, RoundTripsRandomProgramsExactly) {
  Rng rng(0xA55Eull);
  for (int trial = 0; trial < 200; ++trial) {
    const auto inputs = static_cast<std::size_t>(rng.uniform_int(0, 4));
    const auto scratch = static_cast<std::size_t>(rng.uniform_int(1, 9));
    const auto length = static_cast<std::size_t>(rng.uniform_int(0, 40));
    const CimProgram p = random_program(inputs, scratch, length, rng,
                                        /*multi_output=*/true);
    expect_programs_equal(p, assemble(disassemble(p)));
  }
}

TEST(IsaAssembler, ParsesHandWrittenListing) {
  const std::string text =
      "; 2-input AND from the gate library\n"
      ".inputs 2            ; directives in any order\n"
      "\n"
      ".registers 7\n"
      ".output r6\n"
      "  SET0 r2\n"
      "\tIMP r0   r2  ; r2 <- !r0 | r2\n"
      "SET1 r6\n";
  const CimProgram p = assemble(text);
  EXPECT_EQ(p.registers, 7u);
  EXPECT_EQ(p.inputs, 2u);
  EXPECT_EQ(p.output, 6u);
  EXPECT_TRUE(p.outputs.empty());
  ASSERT_EQ(p.instructions.size(), 3u);
  EXPECT_EQ(p.instructions[0].op, CimOp::kSetFalse);
  EXPECT_EQ(p.instructions[0].a, 2u);
  EXPECT_EQ(p.instructions[1].op, CimOp::kImply);
  EXPECT_EQ(p.instructions[1].a, 0u);
  EXPECT_EQ(p.instructions[1].b, 2u);
  EXPECT_EQ(p.instructions[2].op, CimOp::kSetTrue);
  EXPECT_EQ(p.instructions[2].a, 6u);
}

TEST(IsaAssembler, ParsesMultiOutputDirective) {
  const CimProgram p = assemble(
      ".registers 5\n.inputs 2\n.outputs r2 r3 r4\nSET1 r2\n");
  EXPECT_EQ(p.outputs, (std::vector<Reg>{2, 3, 4}));
  EXPECT_EQ(p.output, 2u);
}

TEST(IsaAssembler, RejectsMalformedListings) {
  // Missing .registers / missing .output.
  EXPECT_THROW((void)assemble(".inputs 1\n.output r0\n"), Error);
  EXPECT_THROW((void)assemble(".registers 4\n.inputs 1\n"), Error);
  // Directive after the first instruction.
  EXPECT_THROW(
      (void)assemble(".registers 4\n.output r0\nSET0 r1\n.inputs 1\n"), Error);
  // Unknown directive / mnemonic.
  EXPECT_THROW((void)assemble(".window 4\n.output r0\n"), Error);
  EXPECT_THROW((void)assemble(".registers 4\n.output r0\nNAND r0 r1\n"),
               Error);
  // Operand arity and register syntax.
  EXPECT_THROW((void)assemble(".registers 4\n.output r0\nSET0 r1 r2\n"),
               Error);
  EXPECT_THROW((void)assemble(".registers 4\n.output r0\nIMP r1\n"), Error);
  EXPECT_THROW((void)assemble(".registers 4\n.output r0\nIMP r1 x2\n"), Error);
  EXPECT_THROW((void)assemble(".registers 4\n.output r0\nSET0 r1x\n"), Error);
  // Structurally invalid despite clean syntax (register out of range).
  EXPECT_THROW((void)assemble(".registers 4\n.output r9\n"), Error);
  EXPECT_THROW((void)assemble(".registers 4\n.output r0\nIMP r1 r7\n"), Error);
}

TEST(IsaAssembler, DiagnosticsNameTheOffendingLine) {
  try {
    (void)assemble(".registers 4\n.output r0\nSET0 r1\nBOGUS r2\n");
    FAIL() << "expected an assembler diagnostic";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace memcim::isa
