#include "iss/disassembler.hpp"

#include <map>
#include <set>
#include <sstream>

namespace iss {

namespace {

bool has_target(Opcode op) {
  return op == Opcode::kBf || op == Opcode::kBnf || op == Opcode::kJ ||
         op == Opcode::kJal;
}

std::string reg(unsigned r) {
  return std::string("r").append(std::to_string(r));
}

}  // namespace

std::string disassemble(const Instr& in) {
  std::ostringstream os;
  os << to_string(in.op);
  switch (in.op) {
    // register-register ALU
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kSll:
    case Opcode::kSrl:
    case Opcode::kSra:
    case Opcode::kMul:
    case Opcode::kDiv:
      os << ' ' << reg(in.rd) << ", " << reg(in.ra) << ", " << reg(in.rb);
      break;
    // register-immediate ALU
    case Opcode::kAddi:
    case Opcode::kAndi:
    case Opcode::kOri:
    case Opcode::kXori:
    case Opcode::kSlli:
    case Opcode::kSrli:
    case Opcode::kSrai:
      os << ' ' << reg(in.rd) << ", " << reg(in.ra) << ", " << in.imm;
      break;
    case Opcode::kMovhi:
      os << ' ' << reg(in.rd) << ", " << in.imm;
      break;
    case Opcode::kLw:
    case Opcode::kSw:
    case Opcode::kLb:
    case Opcode::kSb:
      os << ' ' << reg(in.rd) << ", " << in.imm << '(' << reg(in.ra) << ')';
      break;
    case Opcode::kSfeq:
    case Opcode::kSfne:
    case Opcode::kSflt:
    case Opcode::kSfle:
    case Opcode::kSfgt:
    case Opcode::kSfge:
      os << ' ' << reg(in.ra) << ", " << reg(in.rb);
      break;
    case Opcode::kSfeqi:
    case Opcode::kSfnei:
    case Opcode::kSflti:
    case Opcode::kSflei:
    case Opcode::kSfgti:
    case Opcode::kSfgei:
      os << ' ' << reg(in.ra) << ", " << in.imm;
      break;
    case Opcode::kBf:
    case Opcode::kBnf:
    case Opcode::kJ:
    case Opcode::kJal:
      os << " L" << in.target;
      break;
    case Opcode::kJr:
      os << ' ' << reg(in.ra);
      break;
    case Opcode::kNop:
    case Opcode::kHalt:
      break;
  }
  return os.str();
}

std::string disassemble(const Program& program) {
  // Collect every referenced target so labels appear exactly where needed.
  std::set<std::uint32_t> targets;
  for (const Instr& in : program.instrs) {
    if (has_target(in.op)) targets.insert(in.target);
  }
  // Invert the program's own label map for annotation comments.
  std::map<std::uint32_t, std::string> named;
  for (const auto& [name, index] : program.labels) named[index] = name;

  std::ostringstream os;
  for (std::uint32_t i = 0; i < program.instrs.size(); ++i) {
    const auto name = named.find(i);
    if (name != named.end()) os << "# " << name->second << "\n";
    if (targets.count(i) != 0) os << 'L' << i << ":\n";
    os << "  " << disassemble(program.instrs[i]) << "\n";
  }
  // A target one past the last instruction (e.g. a forward jump to end).
  const auto end = static_cast<std::uint32_t>(program.instrs.size());
  if (targets.count(end) != 0) os << 'L' << end << ":\n";
  return os.str();
}

}  // namespace iss
