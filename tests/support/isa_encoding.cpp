#include "support/isa_encoding.h"

#include "common/error.h"

namespace memcim::isa {

namespace {

constexpr std::uint32_t kRegBits = 14;
constexpr std::uint32_t kRegMask = (1u << kRegBits) - 1u;

std::uint32_t encode_instruction(const CimInstruction& inst) {
  const auto op = static_cast<std::uint32_t>(inst.op);
  const auto a = static_cast<std::uint32_t>(inst.a);
  const auto b = static_cast<std::uint32_t>(inst.b);
  return (op << (2 * kRegBits)) | (a << kRegBits) | b;
}

CimInstruction decode_instruction(std::uint32_t word, std::size_t index) {
  const std::uint32_t op = word >> (2 * kRegBits);
  MEMCIM_CHECK_MSG(op <= static_cast<std::uint32_t>(CimOp::kImply),
                   "instruction " << index << ": invalid opcode " << op);
  CimInstruction inst;
  inst.op = static_cast<CimOp>(op);
  inst.a = (word >> kRegBits) & kRegMask;
  inst.b = word & kRegMask;
  MEMCIM_CHECK_MSG(inst.op == CimOp::kImply || inst.b == 0,
                   "instruction " << index << ": SET with nonzero b field");
  return inst;
}

}  // namespace

std::vector<std::uint32_t> encode_program(const CimProgram& program) {
  validate_program(program);
  std::vector<std::uint32_t> words;
  words.reserve(kHeaderWords + program.outputs.size() +
                program.instructions.size());
  words.push_back(kMagic);
  words.push_back(kVersion);
  words.push_back(static_cast<std::uint32_t>(program.registers));
  words.push_back(static_cast<std::uint32_t>(program.inputs));
  words.push_back(static_cast<std::uint32_t>(program.outputs.size()));
  words.push_back(static_cast<std::uint32_t>(program.instructions.size()));
  // Output list: `outputs` when declared, else the single legacy
  // register.  The count word above distinguishes the two shapes
  // (count 0 ⇒ one legacy output register follows).
  if (program.outputs.empty()) {
    words.push_back(static_cast<std::uint32_t>(program.output));
  } else {
    for (const Reg r : program.outputs)
      words.push_back(static_cast<std::uint32_t>(r));
  }
  for (const CimInstruction& inst : program.instructions)
    words.push_back(encode_instruction(inst));
  return words;
}

CimProgram decode_program(const std::vector<std::uint32_t>& words) {
  MEMCIM_CHECK_MSG(words.size() >= kHeaderWords + 1,
                   "program image truncated: " << words.size() << " words");
  MEMCIM_CHECK_MSG(words[0] == kMagic, "bad program magic");
  MEMCIM_CHECK_MSG(words[1] == kVersion,
                   "unsupported program version " << words[1]);
  CimProgram program;
  program.registers = words[2];
  program.inputs = words[3];
  const std::size_t n_outputs = words[4];
  const std::size_t n_instructions = words[5];
  const std::size_t output_words = n_outputs == 0 ? 1 : n_outputs;
  MEMCIM_CHECK_MSG(
      words.size() == kHeaderWords + output_words + n_instructions,
      "program image size mismatch: " << words.size() << " words");
  std::size_t at = kHeaderWords;
  if (n_outputs == 0) {
    program.output = words[at++];
  } else {
    program.outputs.reserve(n_outputs);
    for (std::size_t i = 0; i < n_outputs; ++i)
      program.outputs.push_back(words[at++]);
    program.output = program.outputs.front();
  }
  program.instructions.reserve(n_instructions);
  for (std::size_t i = 0; i < n_instructions; ++i)
    program.instructions.push_back(decode_instruction(words[at++], i));
  validate_program(program);
  return program;
}

std::vector<std::uint8_t> encode_program_bytes(const CimProgram& program) {
  const std::vector<std::uint32_t> words = encode_program(program);
  std::vector<std::uint8_t> bytes;
  bytes.reserve(words.size() * 4);
  for (const std::uint32_t w : words) {
    bytes.push_back(static_cast<std::uint8_t>(w & 0xFFu));
    bytes.push_back(static_cast<std::uint8_t>((w >> 8) & 0xFFu));
    bytes.push_back(static_cast<std::uint8_t>((w >> 16) & 0xFFu));
    bytes.push_back(static_cast<std::uint8_t>((w >> 24) & 0xFFu));
  }
  return bytes;
}

CimProgram decode_program_bytes(const std::vector<std::uint8_t>& bytes) {
  MEMCIM_CHECK_MSG(bytes.size() % 4 == 0,
                   "program byte image is not a whole number of words");
  std::vector<std::uint32_t> words;
  words.reserve(bytes.size() / 4);
  for (std::size_t i = 0; i < bytes.size(); i += 4) {
    words.push_back(static_cast<std::uint32_t>(bytes[i]) |
                    (static_cast<std::uint32_t>(bytes[i + 1]) << 8) |
                    (static_cast<std::uint32_t>(bytes[i + 2]) << 16) |
                    (static_cast<std::uint32_t>(bytes[i + 3]) << 24));
  }
  return decode_program(words);
}

}  // namespace memcim::isa
