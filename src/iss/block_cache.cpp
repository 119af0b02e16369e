#include "iss/block_cache.hpp"

#include <algorithm>
#include <cstdlib>

namespace iss {

BlockCacheConfig BlockCacheConfig::from_env() {
  BlockCacheConfig cfg;
  if (const char* v = std::getenv("ORSIM_BLOCK_CACHE")) {
    cfg.enabled = !(v[0] == '0' && v[1] == '\0');
  }
  return cfg;
}

void BlockCache::build(Block& b, const Program& program,
                       const CycleModel& model, std::uint32_t entry) {
  b.built = true;
  b.runs = true;
  const auto n = static_cast<std::uint32_t>(program.instrs.size());
  // Spanning unconditional jumps turns a loop body of several short basic
  // blocks into one block, so the Machine looks a block up once per body.
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
}

}  // namespace iss
