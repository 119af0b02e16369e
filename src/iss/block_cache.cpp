#include "iss/block_cache.hpp"

#include <algorithm>

namespace iss {

namespace {

/// Whether `op` writes its rd (stores read it).
bool writes_rd(Opcode op) {
  const InstrClass cls = classify(op);
  return cls == InstrClass::kAlu || cls == InstrClass::kMul ||
         cls == InstrClass::kDiv || op == Opcode::kLw || op == Opcode::kLb;
}

}  // namespace

void BlockCache::build(Block& b, const Program& program,
                       const CycleModel& model, Handlers handlers,
                       std::uint32_t entry) {
  b.built = true;
  b.runs = true;
  const auto n = static_cast<std::uint32_t>(program.instrs.size());
  // Spanning unconditional jumps turns a loop body of several short basic
  // blocks into one block, so a loop runs as one block per trip.
  std::vector<std::uint32_t> path;
  std::uint32_t pc = entry;
  while (true) {
    if (pc >= n) {
      // Execution must throw where the path leaves the program, and only
      // the per-instruction path checks each fetch.
      b.runs = false;
      break;
    }
    if (std::find(path.begin(), path.end(), pc) != path.end()) break;
    const Instr& in = program.instrs[pc];
    if (in.op == Opcode::kHalt) break;
    const InstrClass cls = classify(in.op);
    path.push_back(pc);
    ++b.per_class[static_cast<std::size_t>(cls)];
    // Jumps are always taken; a conditional branch can only come last.
    for (const bool taken : {false, true}) {
      b.cycles[taken] +=
          model.cost(cls, cls == InstrClass::kJump ||
                              (cls == InstrClass::kBranch && taken));
    }
    if (cls == InstrClass::kBranch || in.op == Opcode::kJr ||
        path.size() >= kMaxBlockLen) {
      break;
    }
    pc = cls == InstrClass::kJump ? in.target : pc + 1;
  }
  b.len = static_cast<std::uint32_t>(path.size());
  ++stats_.misses;
  if (!b.runs) return;

  // Decode the path once into the run the Machine threads through.
  b.first_op = static_cast<std::uint32_t>(ops_.size());
  b.first_fetch = static_cast<std::uint32_t>(fetch_pcs_.size());
  fetch_pcs_.insert(fetch_pcs_.end(), path.begin(), path.end());
  const auto op_at = [&](Opcode kind, std::uint32_t k) {
    const Instr& in = program.instrs[path[k]];
    Op op;
    op.handler = handlers[static_cast<std::size_t>(kind)];
    op.rd = writes_rd(in.op) && in.rd == 0 ? kSinkReg : in.rd;
    op.ra = in.ra;
    op.rb = in.rb;
    op.fetch = static_cast<std::uint8_t>(k);
    op.imm = in.op == Opcode::kJal ? static_cast<std::int32_t>(path[k] + 1)
                                   : in.imm;
    return op;
  };
  for (std::uint32_t k = 0; k + 1 < b.len; ++k) {
    const Opcode op = program.instrs[path[k]].op;
    if (op != Opcode::kJ && op != Opcode::kNop) ops_.push_back(op_at(op, k));
  }
  const std::uint32_t last = b.len - 1;
  const Instr& fin = program.instrs[path[last]];
  switch (fin.op) {
    case Opcode::kBf:
    case Opcode::kBnf:
      ops_.push_back(op_at(fin.op, last));
      b.next_pc = {path[last] + 1, fin.target};
      break;
    case Opcode::kJr:
      ops_.push_back(op_at(fin.op, last));
      break;
    case Opcode::kJal:
      ops_.push_back(op_at(Opcode::kJal, last));
      [[fallthrough]];
    case Opcode::kJ:
      ops_.push_back(op_at(Opcode::kJ, last));
      b.next_pc = {fin.target, fin.target};
      break;
    default:  // a fall-through: loop closure, a halt next or kMaxBlockLen
      if (fin.op != Opcode::kNop) ops_.push_back(op_at(fin.op, last));
      ops_.push_back(op_at(Opcode::kJ, last));
      b.next_pc = {path[last] + 1, path[last] + 1};
      break;
  }
}

}  // namespace iss
