#pragma once

#include <cstdint>
#include <vector>

#include "iss/machine.hpp"
#include "workloads/table1.hpp"

namespace workloads {

/// Deterministic pseudo-random source (numerical-recipes LCG) so every form
/// of a benchmark — plain C++, annotated, and ISS assembly — operates on
/// bit-identical data without depending on the C++ standard library's
/// unspecified distributions.
class Lcg {
 public:
  explicit Lcg(std::uint32_t seed) : state_(seed) {}

  std::uint32_t next() {
    state_ = state_ * 1664525u + 1013904223u;
    return state_;
  }

  /// Uniform in [lo, hi] (inclusive).
  std::int32_t in_range(std::int32_t lo, std::int32_t hi) {
    const auto span = static_cast<std::uint32_t>(hi - lo + 1);
    return lo + static_cast<std::int32_t>(next() % span);
  }

 private:
  std::uint32_t state_;
};

std::vector<std::int32_t> random_vector(std::size_t n, std::uint32_t seed,
                                        std::int32_t lo, std::int32_t hi);

/// Copies a vector into ISS memory as consecutive little-endian words.
void store_words(iss::Machine& m, std::uint32_t addr,
                 const std::vector<std::int32_t>& v);

/// The ISS form of a Benchmark: a fresh Machine with the cache timing models
/// `cfg` enables runs `asm_src`; `setup` stores the inputs and sets the
/// argument registers, then the result's checksum is what `fn` returns.
IssResult run_on_iss(const IssCacheConfig& cfg, const char* asm_src,
                     const char* fn, void (*setup)(iss::Machine&));

}  // namespace workloads
