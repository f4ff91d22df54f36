#include "support/isa_assembler.h"

#include <sstream>
#include <vector>

#include "common/error.h"
#include "isa/isa.h"

namespace memcim::isa {

namespace {

/// Split a line into whitespace-separated tokens, dropping comments.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string token;
  for (const char c : line) {
    if (c == ';') break;
    if (c == ' ' || c == '\t' || c == '\r') {
      if (!token.empty()) tokens.push_back(std::move(token));
      token.clear();
    } else {
      token.push_back(c);
    }
  }
  if (!token.empty()) tokens.push_back(std::move(token));
  return tokens;
}

std::size_t parse_number(const std::string& token, std::size_t line_no) {
  MEMCIM_CHECK_MSG(!token.empty(), "line " << line_no << ": empty operand");
  std::size_t value = 0;
  for (const char c : token) {
    MEMCIM_CHECK_MSG(c >= '0' && c <= '9',
                     "line " << line_no << ": bad number '" << token << "'");
    value = value * 10 + static_cast<std::size_t>(c - '0');
    MEMCIM_CHECK_MSG(value <= kMaxRegisters,
                     "line " << line_no << ": number '" << token
                             << "' exceeds the ISA register limit");
  }
  return value;
}

Reg parse_register(const std::string& token, std::size_t line_no) {
  MEMCIM_CHECK_MSG(token.size() >= 2 && token[0] == 'r',
                   "line " << line_no << ": expected register 'rN', got '"
                           << token << "'");
  return parse_number(token.substr(1), line_no);
}

}  // namespace

std::string disassemble(const CimProgram& program) {
  validate_program(program);
  std::ostringstream out;
  out << ".registers " << program.registers << '\n';
  out << ".inputs " << program.inputs << '\n';
  if (program.outputs.empty()) {
    out << ".output r" << program.output << '\n';
  } else {
    out << ".outputs";
    for (const Reg r : program.outputs) out << " r" << r;
    out << '\n';
  }
  for (const CimInstruction& inst : program.instructions) {
    switch (inst.op) {
      case CimOp::kSetFalse:
        out << "SET0 r" << inst.a << '\n';
        break;
      case CimOp::kSetTrue:
        out << "SET1 r" << inst.a << '\n';
        break;
      case CimOp::kImply:
        out << "IMP  r" << inst.a << " r" << inst.b << '\n';
        break;
    }
  }
  return out.str();
}

CimProgram assemble(const std::string& text) {
  CimProgram program;
  bool saw_registers = false;
  bool saw_output = false;
  bool in_body = false;
  std::istringstream stream(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& head = tokens[0];
    if (head[0] == '.') {
      MEMCIM_CHECK_MSG(!in_body, "line " << line_no
                                         << ": directive after instructions");
      if (head == ".registers") {
        MEMCIM_CHECK_MSG(tokens.size() == 2,
                         "line " << line_no << ": .registers takes one count");
        program.registers = parse_number(tokens[1], line_no);
        saw_registers = true;
      } else if (head == ".inputs") {
        MEMCIM_CHECK_MSG(tokens.size() == 2,
                         "line " << line_no << ": .inputs takes one count");
        program.inputs = parse_number(tokens[1], line_no);
      } else if (head == ".output") {
        MEMCIM_CHECK_MSG(tokens.size() == 2,
                         "line " << line_no << ": .output takes one register");
        program.output = parse_register(tokens[1], line_no);
        program.outputs.clear();
        saw_output = true;
      } else if (head == ".outputs") {
        MEMCIM_CHECK_MSG(tokens.size() >= 2,
                         "line " << line_no
                                 << ": .outputs takes >= 1 register");
        program.outputs.clear();
        for (std::size_t i = 1; i < tokens.size(); ++i)
          program.outputs.push_back(parse_register(tokens[i], line_no));
        program.output = program.outputs.front();
        saw_output = true;
      } else {
        MEMCIM_CHECK_MSG(false, "line " << line_no << ": unknown directive '"
                                        << head << "'");
      }
      continue;
    }
    in_body = true;
    CimInstruction inst;
    if (head == "SET0" || head == "SET1") {
      MEMCIM_CHECK_MSG(tokens.size() == 2,
                       "line " << line_no << ": " << head
                               << " takes one register");
      inst.op = head == "SET0" ? CimOp::kSetFalse : CimOp::kSetTrue;
      inst.a = parse_register(tokens[1], line_no);
    } else if (head == "IMP") {
      MEMCIM_CHECK_MSG(tokens.size() == 3,
                       "line " << line_no << ": IMP takes two registers");
      inst.op = CimOp::kImply;
      inst.a = parse_register(tokens[1], line_no);
      inst.b = parse_register(tokens[2], line_no);
    } else {
      MEMCIM_CHECK_MSG(false, "line " << line_no << ": unknown mnemonic '"
                                      << head << "'");
    }
    program.instructions.push_back(inst);
  }
  MEMCIM_CHECK_MSG(saw_registers, "missing .registers directive");
  MEMCIM_CHECK_MSG(saw_output, "missing .output/.outputs directive");
  validate_program(program);
  return program;
}

}  // namespace memcim::isa
