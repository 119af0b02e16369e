#include "iss/machine.hpp"

#include <bit>
#include <cassert>
#include <charconv>
#include <cstring>
#include <stdexcept>
#include <string>

namespace iss {

const char* to_string(Opcode op) {
  switch (op) {
    case Opcode::kAdd: return "add";
    case Opcode::kSub: return "sub";
    case Opcode::kAnd: return "and";
    case Opcode::kOr: return "or";
    case Opcode::kXor: return "xor";
    case Opcode::kSll: return "sll";
    case Opcode::kSrl: return "srl";
    case Opcode::kSra: return "sra";
    case Opcode::kMul: return "mul";
    case Opcode::kDiv: return "div";
    case Opcode::kAddi: return "addi";
    case Opcode::kAndi: return "andi";
    case Opcode::kOri: return "ori";
    case Opcode::kXori: return "xori";
    case Opcode::kSlli: return "slli";
    case Opcode::kSrli: return "srli";
    case Opcode::kSrai: return "srai";
    case Opcode::kMovhi: return "movhi";
    case Opcode::kLw: return "lw";
    case Opcode::kSw: return "sw";
    case Opcode::kLb: return "lb";
    case Opcode::kSb: return "sb";
    case Opcode::kSfeq: return "sfeq";
    case Opcode::kSfne: return "sfne";
    case Opcode::kSflt: return "sflt";
    case Opcode::kSfle: return "sfle";
    case Opcode::kSfgt: return "sfgt";
    case Opcode::kSfge: return "sfge";
    case Opcode::kSfeqi: return "sfeqi";
    case Opcode::kSfnei: return "sfnei";
    case Opcode::kSflti: return "sflti";
    case Opcode::kSflei: return "sflei";
    case Opcode::kSfgti: return "sfgti";
    case Opcode::kSfgei: return "sfgei";
    case Opcode::kBf: return "bf";
    case Opcode::kBnf: return "bnf";
    case Opcode::kJ: return "j";
    case Opcode::kJal: return "jal";
    case Opcode::kJr: return "jr";
    case Opcode::kNop: return "nop";
    case Opcode::kHalt: return "halt";
  }
  return "?";
}

InstrClass classify(Opcode op) {
  switch (op) {
    case Opcode::kMul:
      return InstrClass::kMul;
    case Opcode::kDiv:
      return InstrClass::kDiv;
    case Opcode::kLw:
    case Opcode::kLb:
      return InstrClass::kLoad;
    case Opcode::kSw:
    case Opcode::kSb:
      return InstrClass::kStore;
    case Opcode::kSfeq:
    case Opcode::kSfne:
    case Opcode::kSflt:
    case Opcode::kSfle:
    case Opcode::kSfgt:
    case Opcode::kSfge:
    case Opcode::kSfeqi:
    case Opcode::kSfnei:
    case Opcode::kSflti:
    case Opcode::kSflei:
    case Opcode::kSfgti:
    case Opcode::kSfgei:
      return InstrClass::kCompare;
    case Opcode::kBf:
    case Opcode::kBnf:
      return InstrClass::kBranch;
    case Opcode::kJ:
    case Opcode::kJal:
    case Opcode::kJr:
      return InstrClass::kJump;
    case Opcode::kNop:
    case Opcode::kHalt:
      return InstrClass::kNop;
    default:
      return InstrClass::kAlu;
  }
}

// ----------------------------------------------------------------- cache ----

DirectMappedCache::DirectMappedCache(Config cfg) : cfg_(cfg) {
  // Release builds would silently drop an assert and compute garbage index
  // masks; reject non-power-of-two geometries loudly instead.
  const auto pow2 = [](std::uint32_t v) { return v != 0 && (v & (v - 1)) == 0; };
  if (!pow2(cfg_.lines)) {
    throw std::invalid_argument("DirectMappedCache: lines must be a power of 2, got " +
                                std::to_string(cfg_.lines));
  }
  if (!pow2(cfg_.line_bytes)) {
    throw std::invalid_argument(
        "DirectMappedCache: line_bytes must be a power of 2, got " +
        std::to_string(cfg_.line_bytes));
  }
  index_mask_ = cfg_.lines - 1;
  offset_bits_ = 0;
  for (std::uint32_t b = cfg_.line_bytes; b > 1; b >>= 1) ++offset_bits_;
  tags_.assign(cfg_.lines, -1);
}

std::uint32_t DirectMappedCache::access(std::uint32_t addr) {
  const std::uint32_t block = addr >> offset_bits_;
  const std::uint32_t index = block & index_mask_;
  const auto tag = static_cast<std::int64_t>(block >> 0);
  if (tags_[index] == tag) {
    ++hits_;
    return 0;
  }
  tags_[index] = tag;
  ++misses_;
  return cfg_.miss_penalty;
}

void DirectMappedCache::reset() {
  tags_.assign(cfg_.lines, -1);
  hits_ = 0;
  misses_ = 0;
}

// --------------------------------------------------------------- machine ----

Machine::Machine(std::size_t mem_bytes) : mem_(mem_bytes, 0) {}

void Machine::load_program(Program program) {
  program_ = std::move(program);
  halt_stub_ = static_cast<std::uint32_t>(program_.instrs.size());
  program_.instrs.push_back({Opcode::kHalt, 0, 0, 0, 0, 0});
  pc_ = 0;
  blocks_.reset(program_.instrs.size());  // blocks are indexed by PC
}

namespace {

// Out of line and cold, so that the inlined bound check costs a load or
// store only a compare and a branch that is never taken.
[[noreturn, gnu::cold, gnu::noinline]] void throw_outside_memory(
    std::uint32_t addr) {
  char hex[8];
  char* const end = std::to_chars(hex, hex + sizeof hex, addr, 16).ptr;
  throw std::out_of_range("iss: memory access at 0x" + std::string(hex, end) +
                          " outside memory");
}

// The bound check of every load and store. The sum is 64-bit, so an address
// near 2^32 cannot wrap below the bound.
void check_addr(const std::vector<std::uint8_t>& mem, std::uint32_t addr,
                std::uint32_t bytes) {
  if (static_cast<std::size_t>(addr) + bytes > mem.size()) {
    throw_outside_memory(addr);
  }
}

// orsim memory is little-endian on every host.
std::uint32_t little_endian(std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = (v >> 24) | ((v >> 8) & 0xff00u) | ((v << 8) & 0xff0000u) | (v << 24);
  }
  return v;
}

}  // namespace

std::int32_t Machine::read_word(std::uint32_t addr) const {
  check_addr(mem_, addr, 4);
  std::uint32_t v = 0;
  std::memcpy(&v, mem_.data() + addr, 4);
  return static_cast<std::int32_t>(little_endian(v));
}

void Machine::write_word(std::uint32_t addr, std::int32_t v) {
  check_addr(mem_, addr, 4);
  const std::uint32_t u = little_endian(static_cast<std::uint32_t>(v));
  std::memcpy(mem_.data() + addr, &u, 4);
}

std::int8_t Machine::read_byte(std::uint32_t addr) const {
  check_addr(mem_, addr, 1);
  return static_cast<std::int8_t>(mem_[addr]);
}

void Machine::write_byte(std::uint32_t addr, std::int8_t v) {
  check_addr(mem_, addr, 1);
  mem_[addr] = static_cast<std::uint8_t>(v);
}

void Machine::reset_stats() {
  stats_ = ExecStats{};
  if (icache_) icache_->reset();
  if (dcache_) dcache_->reset();
}

Machine::RunResult Machine::run(std::uint64_t max_steps) {
  return run_from(pc_, max_steps);
}

// The interpreter calls this once per instruction from two sites (the
// per-instruction loop and the block path's tight loop); forcing the inline
// keeps both at direct-switch dispatch speed.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((always_inline)) inline
#else
inline
#endif
std::uint32_t Machine::exec_arch(const Instr& in, std::uint64_t& cycles,
                                 bool& taken) {
  std::uint32_t next = pc_ + 1;
  auto& r = regs_;
  const auto u = [&](unsigned i) { return static_cast<std::uint32_t>(r[i]); };
  switch (in.op) {
    case Opcode::kAdd: set_reg(in.rd, r[in.ra] + r[in.rb]); break;
    case Opcode::kSub: set_reg(in.rd, r[in.ra] - r[in.rb]); break;
    case Opcode::kAnd: set_reg(in.rd, r[in.ra] & r[in.rb]); break;
    case Opcode::kOr: set_reg(in.rd, r[in.ra] | r[in.rb]); break;
    case Opcode::kXor: set_reg(in.rd, r[in.ra] ^ r[in.rb]); break;
    case Opcode::kSll:
      set_reg(in.rd, static_cast<std::int32_t>(u(in.ra) << (u(in.rb) & 31)));
      break;
    case Opcode::kSrl:
      set_reg(in.rd, static_cast<std::int32_t>(u(in.ra) >> (u(in.rb) & 31)));
      break;
    case Opcode::kSra:
      set_reg(in.rd, r[in.ra] >> (u(in.rb) & 31));
      break;
    case Opcode::kMul: set_reg(in.rd, r[in.ra] * r[in.rb]); break;
    case Opcode::kDiv:
      // Divide-by-zero yields 0, as on cores that trap-and-fix.
      set_reg(in.rd, r[in.rb] == 0 ? 0 : r[in.ra] / r[in.rb]);
      break;
    case Opcode::kAddi: set_reg(in.rd, r[in.ra] + in.imm); break;
    case Opcode::kAndi: set_reg(in.rd, r[in.ra] & in.imm); break;
    case Opcode::kOri: set_reg(in.rd, r[in.ra] | in.imm); break;
    case Opcode::kXori: set_reg(in.rd, r[in.ra] ^ in.imm); break;
    case Opcode::kSlli:
      set_reg(in.rd, static_cast<std::int32_t>(u(in.ra) << (in.imm & 31)));
      break;
    case Opcode::kSrli:
      set_reg(in.rd, static_cast<std::int32_t>(u(in.ra) >> (in.imm & 31)));
      break;
    case Opcode::kSrai: set_reg(in.rd, r[in.ra] >> (in.imm & 31)); break;
    case Opcode::kMovhi:
      set_reg(in.rd, static_cast<std::int32_t>(
                         static_cast<std::uint32_t>(in.imm) << 16));
      break;
    case Opcode::kLw: {
      const auto addr = static_cast<std::uint32_t>(r[in.ra] + in.imm);
      if (dcache_) cycles += dcache_->access(addr);
      set_reg(in.rd, read_word(addr));
      break;
    }
    case Opcode::kSw: {
      const auto addr = static_cast<std::uint32_t>(r[in.ra] + in.imm);
      if (dcache_) cycles += dcache_->access(addr);
      write_word(addr, r[in.rd]);
      break;
    }
    case Opcode::kLb: {
      const auto addr = static_cast<std::uint32_t>(r[in.ra] + in.imm);
      if (dcache_) cycles += dcache_->access(addr);
      set_reg(in.rd, read_byte(addr));
      break;
    }
    case Opcode::kSb: {
      const auto addr = static_cast<std::uint32_t>(r[in.ra] + in.imm);
      if (dcache_) cycles += dcache_->access(addr);
      write_byte(addr, static_cast<std::int8_t>(r[in.rd] & 0xff));
      break;
    }
    case Opcode::kSfeq: flag_ = r[in.ra] == r[in.rb]; break;
    case Opcode::kSfne: flag_ = r[in.ra] != r[in.rb]; break;
    case Opcode::kSflt: flag_ = r[in.ra] < r[in.rb]; break;
    case Opcode::kSfle: flag_ = r[in.ra] <= r[in.rb]; break;
    case Opcode::kSfgt: flag_ = r[in.ra] > r[in.rb]; break;
    case Opcode::kSfge: flag_ = r[in.ra] >= r[in.rb]; break;
    case Opcode::kSfeqi: flag_ = r[in.ra] == in.imm; break;
    case Opcode::kSfnei: flag_ = r[in.ra] != in.imm; break;
    case Opcode::kSflti: flag_ = r[in.ra] < in.imm; break;
    case Opcode::kSflei: flag_ = r[in.ra] <= in.imm; break;
    case Opcode::kSfgti: flag_ = r[in.ra] > in.imm; break;
    case Opcode::kSfgei: flag_ = r[in.ra] >= in.imm; break;
    case Opcode::kBf:
      taken = flag_;
      if (taken) next = in.target;
      break;
    case Opcode::kBnf:
      taken = !flag_;
      if (taken) next = in.target;
      break;
    case Opcode::kJ:
      taken = true;
      next = in.target;
      break;
    case Opcode::kJal:
      taken = true;
      set_reg(9, static_cast<std::int32_t>(pc_ + 1));
      next = in.target;
      break;
    case Opcode::kJr:
      taken = true;
      next = static_cast<std::uint32_t>(r[in.ra]);
      break;
    case Opcode::kNop:
      break;
    case Opcode::kHalt:
      break;  // unreachable (callers break on halt before executing)
  }
  return next;
}

Machine::RunResult Machine::run_from(std::uint32_t entry,
                                     std::uint64_t max_steps) {
  pc_ = entry;
  if (regs_[1] == 0) {
    regs_[1] = static_cast<std::int32_t>(mem_.size() - 16);
  }
  RunResult res;
  const auto n_instrs = static_cast<std::uint32_t>(program_.instrs.size());
  // The block path runs a whole block in a tight loop with no fetch-bound,
  // halt, trace or pricing check per instruction, and prices it once at its
  // end. It is off while tracing: the ring must see every instruction.
  const bool block_path = bc_cfg_.enabled && trace_depth_ == 0;

  while (res.instructions < max_steps) {
    if (pc_ >= n_instrs) {
      throw std::out_of_range("iss: PC " + std::to_string(pc_) +
                              " outside program");
    }
    const Instr& in = program_.instrs[pc_];
    if (in.op == Opcode::kHalt) {
      res.halted = true;
      break;
    }
    if (block_path) {
      if (const BlockCache::Block* b = blocks_.at(
              program_, model_, pc_, max_steps - res.instructions)) {
        // No bounds check on the fetch: build() only lets blocks whose
        // whole path lies inside the program run here.
        bool taken = false;  // the final instruction's outcome prices it
        // A store into orsim memory is a char write, which may alias any
        // member, so the loop would reload the instruction base after one;
        // a local cannot be aliased.
        const Instr* const code = program_.instrs.data();
        if (icache_) {
          for (std::uint32_t k = b->len; k != 0; --k) {
            const std::uint32_t pc = pc_;
            pc_ = exec_arch(code[pc], res.cycles, taken);
            res.cycles += icache_->access(pc * 4);
          }
        } else {
          for (std::uint32_t k = b->len; k != 0; --k) {
            pc_ = exec_arch(code[pc_], res.cycles, taken);
          }
        }
        res.instructions += b->len;
        res.cycles += b->cycles[taken];
        for (std::size_t c = 0; c < b->per_class.size(); ++c) {
          stats_.per_class[c] += b->per_class[c];
        }
        continue;
      }
    }
    ++res.instructions;
    bool taken = false;
    const std::uint32_t next = exec_arch(in, res.cycles, taken);

    if (trace_depth_ != 0) {
      TraceRecord rec{pc_, in, regs_[in.rd], flag_};
      if (trace_.size() < trace_depth_) {
        trace_.push_back(rec);
      } else {
        trace_[trace_next_] = rec;
      }
      trace_next_ = (trace_next_ + 1) % trace_depth_;
    }
    const InstrClass cls = classify(in.op);
    res.cycles += model_.cost(cls, taken);
    if (icache_) {
      // Instruction addresses: 4 bytes per instruction, based at 0.
      res.cycles += icache_->access(pc_ * 4);
    }
    ++stats_.per_class[static_cast<std::size_t>(cls)];
    pc_ = next;
  }

  stats_.instructions += res.instructions;
  stats_.cycles += res.cycles;
  return res;
}

std::vector<Machine::TraceRecord> Machine::trace_window() const {
  std::vector<TraceRecord> out;
  out.reserve(trace_.size());
  if (trace_.size() < trace_depth_) {
    out = trace_;  // ring not yet wrapped
  } else {
    for (std::size_t i = 0; i < trace_.size(); ++i) {
      out.push_back(trace_[(trace_next_ + i) % trace_.size()]);
    }
  }
  return out;
}

std::int32_t Machine::call(const std::string& fn, std::uint64_t max_steps) {
  set_reg(9, static_cast<std::int32_t>(halt_stub_));
  const auto result = run_from(program_.label(fn), max_steps);
  if (!result.halted) {
    throw std::runtime_error("iss: call to '" + fn + "' did not halt");
  }
  return reg(11);
}

}  // namespace iss
