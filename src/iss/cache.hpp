#pragma once

#include <cstdint>
#include <vector>

namespace iss {

/// Direct-mapped cache timing model (no data storage — only hit/miss
/// accounting, which is all a cycle model needs). Supports the instruction-
/// cache error discussion of the paper's §1 (ref [18]): enabling it on the
/// ISS but not in the estimation library produces exactly the class of error
/// the paper attributes to caches.
class DirectMappedCache {
 public:
  struct Config {
    std::uint32_t lines = 256;        ///< number of cache lines (power of 2)
    std::uint32_t line_bytes = 16;    ///< line size (power of 2)
    std::uint32_t miss_penalty = 10;  ///< extra cycles per miss
  };

  explicit DirectMappedCache(Config cfg);

  /// Returns the extra cycles this access costs (0 on hit).
  std::uint32_t access(std::uint32_t addr);

  void reset();
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

  double hit_rate() const {
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / total;
  }
  const Config& config() const { return cfg_; }

 private:
  Config cfg_;
  std::uint32_t index_mask_;
  std::uint32_t offset_bits_;
  std::vector<std::int64_t> tags_;  ///< -1 = invalid
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace iss
