#include "iss/machine.hpp"

#include <bit>
#include <cassert>
#include <charconv>
#include <cstring>
#include <iterator>
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

namespace {

// Guest arithmetic wraps in two's complement and never traps the host: sums,
// differences, products and load/store addresses are computed in uint32_t,
// and INT32_MIN / -1 is INT32_MIN. Shared by both paths.
std::uint32_t bits(std::int32_t v) { return static_cast<std::uint32_t>(v); }
std::int32_t wrap(std::uint32_t v) { return static_cast<std::int32_t>(v); }
std::int32_t guest_add(std::int32_t a, std::int32_t b) {
  return wrap(bits(a) + bits(b));
}
std::int32_t guest_sub(std::int32_t a, std::int32_t b) {
  return wrap(bits(a) - bits(b));
}
std::int32_t guest_mul(std::int32_t a, std::int32_t b) {
  return wrap(bits(a) * bits(b));
}
std::int32_t guest_div(std::int32_t a, std::int32_t b) {
  // Divide-by-zero yields 0, as on cores that trap-and-fix.
  if (b == 0) return 0;
  return b == -1 ? wrap(0u - bits(a)) : a / b;
}
std::uint32_t guest_addr(std::int32_t base, std::int32_t off) {
  return bits(base) + bits(off);
}

}  // namespace

std::uint32_t Machine::exec_arch(const Instr& in, std::uint64_t& cycles,
                                 bool& taken) {
  std::uint32_t next = pc_ + 1;
  auto& r = regs_;
  const auto u = [&](unsigned i) { return bits(r[i]); };
  switch (in.op) {
    case Opcode::kAdd: set_reg(in.rd, guest_add(r[in.ra], r[in.rb])); break;
    case Opcode::kSub: set_reg(in.rd, guest_sub(r[in.ra], r[in.rb])); break;
    case Opcode::kAnd: set_reg(in.rd, r[in.ra] & r[in.rb]); break;
    case Opcode::kOr: set_reg(in.rd, r[in.ra] | r[in.rb]); break;
    case Opcode::kXor: set_reg(in.rd, r[in.ra] ^ r[in.rb]); break;
    case Opcode::kSll: set_reg(in.rd, wrap(u(in.ra) << (u(in.rb) & 31))); break;
    case Opcode::kSrl: set_reg(in.rd, wrap(u(in.ra) >> (u(in.rb) & 31))); break;
    case Opcode::kSra: set_reg(in.rd, r[in.ra] >> (u(in.rb) & 31)); break;
    case Opcode::kMul: set_reg(in.rd, guest_mul(r[in.ra], r[in.rb])); break;
    case Opcode::kDiv: set_reg(in.rd, guest_div(r[in.ra], r[in.rb])); break;
    case Opcode::kAddi: set_reg(in.rd, guest_add(r[in.ra], in.imm)); break;
    case Opcode::kAndi: set_reg(in.rd, r[in.ra] & in.imm); break;
    case Opcode::kOri: set_reg(in.rd, r[in.ra] | in.imm); break;
    case Opcode::kXori: set_reg(in.rd, r[in.ra] ^ in.imm); break;
    case Opcode::kSlli: set_reg(in.rd, wrap(u(in.ra) << (in.imm & 31))); break;
    case Opcode::kSrli: set_reg(in.rd, wrap(u(in.ra) >> (in.imm & 31))); break;
    case Opcode::kSrai: set_reg(in.rd, r[in.ra] >> (in.imm & 31)); break;
    case Opcode::kMovhi: set_reg(in.rd, wrap(bits(in.imm) << 16)); break;
    case Opcode::kLw: {
      const std::uint32_t addr = guest_addr(r[in.ra], in.imm);
      if (dcache_) cycles += dcache_->access(addr);
      set_reg(in.rd, read_word(addr));
      break;
    }
    case Opcode::kSw: {
      const std::uint32_t addr = guest_addr(r[in.ra], in.imm);
      if (dcache_) cycles += dcache_->access(addr);
      write_word(addr, r[in.rd]);
      break;
    }
    case Opcode::kLb: {
      const std::uint32_t addr = guest_addr(r[in.ra], in.imm);
      if (dcache_) cycles += dcache_->access(addr);
      set_reg(in.rd, read_byte(addr));
      break;
    }
    case Opcode::kSb: {
      const std::uint32_t addr = guest_addr(r[in.ra], in.imm);
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
      next = u(in.ra);
      break;
    case Opcode::kNop:
      break;
    case Opcode::kHalt:
      break;  // unreachable (run_from breaks on halt before executing)
  }
  return next;
}

#if !defined(__GNUC__)
#error "orsim's threaded interpreter needs labels as values (GCC or Clang)"
#endif

bool Machine::run_blocks(std::uint64_t max_steps, RunResult& res) {
  using Block = BlockCache::Block;
  using Op = BlockCache::Op;
  // Indexed by Opcode, as BlockCache::Handlers documents.
  static const void* const kHandlers[] = {
      &&add, &&sub, &&and_, &&or_, &&xor_, &&sll, &&srl, &&sra, &&mul, &&div,
      &&addi, &&andi, &&ori, &&xori, &&slli, &&srli, &&srai, &&movhi,
      &&lw, &&sw, &&lb, &&sb,
      &&sfeq, &&sfne, &&sflt, &&sfle, &&sfgt, &&sfge,
      &&sfeqi, &&sfnei, &&sflti, &&sflei, &&sfgti, &&sfgei,
      // kJ, kJal: the static-successor terminator and the link op. A block
      // holds no nop and no halt.
      &&bf, &&bnf, &&to_next, &&link, &&jr, nullptr, nullptr};
  static_assert(std::size(kHandlers) ==
                static_cast<std::size_t>(Opcode::kHalt) + 1);

  const Block* b = blocks_.at(program_, model_, kHandlers, pc_,
                              max_steps - res.instructions);
  if (b == nullptr) return false;

  // Locals for everything the handlers touch: a store into orsim memory is a
  // char write, which may alias any member, but not a local.
  std::int32_t* const r = regs_.data();
  std::uint8_t* const mem = mem_.data();
  const std::size_t mem_bytes = mem_.size();
  DirectMappedCache* const icache = icache_ ? &*icache_ : nullptr;
  DirectMappedCache* const dcache = dcache_ ? &*dcache_ : nullptr;
  std::uint64_t steps = res.instructions;
  std::uint64_t cycles = res.cycles;
  bool flag = flag_;
  std::uint32_t next_pc = 0;
  std::uint32_t next = BlockCache::kNoBlock;
  std::uint32_t addr = 0;
  const Op* op = blocks_.ops() + b->first_op;

  // Prices the block at its terminator: pipeline cycles by outcome, the
  // per-class counts, and the i-cache over its fetch-order PCs.
  const auto price = [&](bool taken) {
    steps += b->len;
    cycles += b->cycles[taken];
    for (std::size_t c = 0; c < b->per_class.size(); ++c) {
      stats_.per_class[c] += b->per_class[c];
    }
    if (icache) {
      const std::uint32_t* const pcs = blocks_.fetch_pcs() + b->first_fetch;
      for (std::uint32_t k = 0; k < b->len; ++k) {
        cycles += icache->access(pcs[k] * 4);
      }
    }
  };
  // Charges the d-cache for `addr`, then checks the bound as exec_arch
  // does: a 64-bit sum, so an address near 2^32 cannot wrap below it.
  const auto in_memory = [&](std::uint32_t bytes) {
    if (dcache) cycles += dcache->access(addr);
    return static_cast<std::size_t>(addr) + bytes <= mem_bytes;
  };

  // Prices the block, then returns the index of its successor by outcome
  // `taken`, resolved on first use, or kNoBlock once the budget is spent.
  // Each terminator calls it with a constant, so a guest branch stays a host
  // branch: its outcome is not an index that the next dispatch waits on.
  const auto follow = [&](bool taken) {
    price(taken);
    next_pc = b->next_pc[taken];
    if (steps == max_steps) return BlockCache::kNoBlock;
    const std::uint32_t n = b->next[taken];
    return n != BlockCache::kUnresolved
               ? n
               : blocks_.link(*b, taken, program_, model_, kHandlers);
  };

#define ORSIM_NEXT() goto *(++op)->handler
  goto *op->handler;

add: r[op->rd] = guest_add(r[op->ra], r[op->rb]); ORSIM_NEXT();
sub: r[op->rd] = guest_sub(r[op->ra], r[op->rb]); ORSIM_NEXT();
and_: r[op->rd] = r[op->ra] & r[op->rb]; ORSIM_NEXT();
or_: r[op->rd] = r[op->ra] | r[op->rb]; ORSIM_NEXT();
xor_: r[op->rd] = r[op->ra] ^ r[op->rb]; ORSIM_NEXT();
sll: r[op->rd] = wrap(bits(r[op->ra]) << (bits(r[op->rb]) & 31)); ORSIM_NEXT();
srl: r[op->rd] = wrap(bits(r[op->ra]) >> (bits(r[op->rb]) & 31)); ORSIM_NEXT();
sra: r[op->rd] = r[op->ra] >> (bits(r[op->rb]) & 31); ORSIM_NEXT();
mul: r[op->rd] = guest_mul(r[op->ra], r[op->rb]); ORSIM_NEXT();
div: r[op->rd] = guest_div(r[op->ra], r[op->rb]); ORSIM_NEXT();
addi: r[op->rd] = guest_add(r[op->ra], op->imm); ORSIM_NEXT();
andi: r[op->rd] = r[op->ra] & op->imm; ORSIM_NEXT();
ori: r[op->rd] = r[op->ra] | op->imm; ORSIM_NEXT();
xori: r[op->rd] = r[op->ra] ^ op->imm; ORSIM_NEXT();
slli: r[op->rd] = wrap(bits(r[op->ra]) << (op->imm & 31)); ORSIM_NEXT();
srli: r[op->rd] = wrap(bits(r[op->ra]) >> (op->imm & 31)); ORSIM_NEXT();
srai: r[op->rd] = r[op->ra] >> (op->imm & 31); ORSIM_NEXT();
movhi: r[op->rd] = wrap(bits(op->imm) << 16); ORSIM_NEXT();
lw:
  addr = guest_addr(r[op->ra], op->imm);
  if (!in_memory(4)) goto fault;
  {
    std::uint32_t v;
    std::memcpy(&v, mem + addr, 4);
    r[op->rd] = wrap(little_endian(v));
  }
  ORSIM_NEXT();
sw:
  addr = guest_addr(r[op->ra], op->imm);
  if (!in_memory(4)) goto fault;
  {
    const std::uint32_t v = little_endian(bits(r[op->rd]));
    std::memcpy(mem + addr, &v, 4);
  }
  ORSIM_NEXT();
lb:
  addr = guest_addr(r[op->ra], op->imm);
  if (!in_memory(1)) goto fault;
  r[op->rd] = static_cast<std::int8_t>(mem[addr]);
  ORSIM_NEXT();
sb:
  addr = guest_addr(r[op->ra], op->imm);
  if (!in_memory(1)) goto fault;
  mem[addr] = static_cast<std::uint8_t>(r[op->rd]);
  ORSIM_NEXT();
sfeq: flag = r[op->ra] == r[op->rb]; ORSIM_NEXT();
sfne: flag = r[op->ra] != r[op->rb]; ORSIM_NEXT();
sflt: flag = r[op->ra] < r[op->rb]; ORSIM_NEXT();
sfle: flag = r[op->ra] <= r[op->rb]; ORSIM_NEXT();
sfgt: flag = r[op->ra] > r[op->rb]; ORSIM_NEXT();
sfge: flag = r[op->ra] >= r[op->rb]; ORSIM_NEXT();
sfeqi: flag = r[op->ra] == op->imm; ORSIM_NEXT();
sfnei: flag = r[op->ra] != op->imm; ORSIM_NEXT();
sflti: flag = r[op->ra] < op->imm; ORSIM_NEXT();
sflei: flag = r[op->ra] <= op->imm; ORSIM_NEXT();
sfgti: flag = r[op->ra] > op->imm; ORSIM_NEXT();
sfgei: flag = r[op->ra] >= op->imm; ORSIM_NEXT();
link: r[9] = op->imm; ORSIM_NEXT();
#undef ORSIM_NEXT

  // Terminators. A chain continues while the next block runs and fits the
  // step budget; anything else returns to run_from at the next PC.
bf:
  if (flag) goto exit_taken;
  goto to_next;
bnf:
  if (!flag) goto exit_taken;
to_next:
  next = follow(false);
  goto enter;
exit_taken:
  next = follow(true);
  goto enter;
jr:
  next_pc = bits(r[op->ra]);
  price(false);
  next = steps == max_steps
             ? BlockCache::kNoBlock
             : blocks_.resolve(program_, model_, kHandlers, next_pc);
enter:
  if (next == BlockCache::kNoBlock) goto leave;
  b = blocks_.enter(next, max_steps - steps);
  if (b == nullptr) goto leave;
  op = blocks_.ops() + b->first_op;
  goto *op->handler;

fault: {
  // As on the per-instruction path: pc() at the access, and the i-cache
  // charged for the instructions fetched before it.
  const std::uint32_t* const pcs = blocks_.fetch_pcs() + b->first_fetch;
  if (icache) {
    for (std::uint32_t k = 0; k < op->fetch; ++k) icache->access(pcs[k] * 4);
  }
  pc_ = pcs[op->fetch];
  flag_ = flag;
  throw_outside_memory(addr);
}

leave:
  pc_ = next_pc;
  flag_ = flag;
  res.instructions = steps;
  res.cycles = cycles;
  return true;
}

Machine::RunResult Machine::run_from(std::uint32_t entry,
                                     std::uint64_t max_steps) {
  pc_ = entry;
  if (regs_[1] == 0) {
    regs_[1] = static_cast<std::int32_t>(mem_.size() - 16);
  }
  RunResult res;
  const auto n_instrs = static_cast<std::uint32_t>(program_.instrs.size());
  // The block path is off while tracing: the ring must see every
  // instruction.
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
    if (block_path && run_blocks(max_steps, res)) continue;
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
