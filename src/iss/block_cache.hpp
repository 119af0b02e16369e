#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "iss/cycle_model.hpp"
#include "iss/isa.hpp"

namespace iss {

/// The block path's on/off switch. The default comes from the environment
/// at Machine construction: ORSIM_BLOCK_CACHE=0 turns the block path off.
struct BlockCacheConfig {
  bool enabled = true;

  static BlockCacheConfig from_env();
};

/// Block-path counters (Machine::block_cache_stats).
struct BlockCacheStats {
  std::uint64_t hits = 0;      ///< blocks run on the block path
  std::uint64_t misses = 0;    ///< blocks built
  std::uint64_t bypassed = 0;  ///< instructions run per instruction instead
};

/// Static blocks for the orsim interpreter. A block is the longest statically
/// deterministic path from an entry PC: a straight-line run extended across
/// unconditional jumps (their targets are immediates), ending at the first
/// conditional branch, `jr`, halt, loop closure or kMaxBlockLen instructions.
/// Each block is built once, on first arrival at its entry PC, and stores its
/// length, its per-class counts and its pipeline cycles for both outcomes of
/// its final branch. Those depend only on the instructions and the cycle
/// model, never on the cache models, which the Machine charges live while it
/// runs the block: the i-cache per instruction in fetch order, the d-cache
/// inside every load and store. So there is nothing to memoize and nothing
/// to validate; the per-instruction path stays the reference the block path
/// is tested against (DESIGN.md §4, "Below the segment").
class BlockCache {
 public:
  static constexpr std::uint32_t kMaxBlockLen = 64;

  struct Block {
    bool built = false;
    bool runs = false;      ///< false: the path leaves the program
    std::uint32_t len = 0;  ///< instructions, the final transfer included
    std::array<std::uint32_t, static_cast<std::size_t>(InstrClass::kCount_)>
        per_class{};
    /// Pipeline cycles of the whole block, indexed by whether its final
    /// instruction was taken (equal unless it is a conditional branch).
    std::array<std::uint64_t, 2> cycles{};
  };

  /// Drops every block and counter; sized for a program of `n_instrs`.
  void reset(std::size_t n_instrs) {
    blocks_.assign(n_instrs, Block{});
    stats_ = {};
  }

  /// The block at `pc` (inside the program, not a halt), built on first use,
  /// or nullptr when the next instruction must run per instruction: the path
  /// leaves the program, or fewer than its length remain of the step budget.
  const Block* at(const Program& program, const CycleModel& model,
                  std::uint32_t pc, std::uint64_t remaining_steps) {
    Block& b = blocks_[pc];
    if (!b.built) build(b, program, model, pc);
    if (b.runs && remaining_steps >= b.len) {
      ++stats_.hits;
      return &b;
    }
    ++stats_.bypassed;
    return nullptr;
  }

  const BlockCacheStats& stats() const { return stats_; }

 private:
  void build(Block& b, const Program& program, const CycleModel& model,
             std::uint32_t entry);

  std::vector<Block> blocks_;  ///< indexed by entry PC
  BlockCacheStats stats_;
};

}  // namespace iss
