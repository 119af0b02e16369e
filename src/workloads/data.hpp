#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "core/annot.hpp"
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

// ---- one kernel text, two forms ---------------------------------------------
// Each Table 1 benchmark and vocoder kernel is one function template over its
// value type V and array type A, instantiated on scperf::gint / garray<int>
// (annotated) and on std::int32_t / a plain array (the unannotated spec).
// Unlike the type-redefinition header, the template parameters replace only
// the values the annotated text charges; offsets and bounds stay plain ints.

/// An annotated copy of `v`, written through the uncharged accessors: input
/// data that exists before the segment starts.
scperf::garray<int> load(std::span<const std::int32_t> v);

/// A kernel's N-element scratch array: a garray<int> in the annotated form,
/// N words on the stack in the plain one, so that form allocates nothing.
template <class A, int N>
auto scratch() {
  if constexpr (std::is_same_v<A, scperf::garray<int>>) {
    return scperf::garray<int>(N);
  } else {
    return std::array<std::int32_t, N>{};
  }
}

/// A kernel's result as a Benchmark returns it, read without a charge.
inline long value_of(std::int32_t v) { return v; }
inline long value_of(const scperf::gint& v) { return v.value(); }

/// Copies words into ISS memory as consecutive little-endian words.
void store_words(iss::Machine& m, std::uint32_t addr,
                 std::span<const std::int32_t> v);

/// The ISS form of a Benchmark: a fresh Machine with the cache timing models
/// and the block path `cfg` selects runs `asm_src`; `setup` stores the inputs and sets the
/// argument registers, then the result's checksum is what `fn` returns.
IssResult run_on_iss(const IssCacheConfig& cfg, const char* asm_src,
                     const char* fn, void (*setup)(iss::Machine&));

}  // namespace workloads
