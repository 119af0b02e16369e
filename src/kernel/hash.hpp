#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>

#include "kernel/time.hpp"

namespace minisc {

/// Deterministic 64-bit generator (splitmix64). Chosen over <random> engines
/// because its output is fully specified by the algorithm — the same seed
/// produces the same fault timeline, sub-stream and backoff jitter on every
/// platform and standard library, which is what makes resilience campaigns
/// reproducible and their capture hashes comparable across machines.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi].
  double uniform(double lo, double hi) { return lo + uniform() * (hi - lo); }

  /// Uniform integer in [0, n) without modulo bias (Lemire's multiply-shift
  /// with rejection). n == 0 is the full 64-bit range.
  std::uint64_t bounded(std::uint64_t n) {
    if (n == 0) return next();
    unsigned __int128 m =
        static_cast<unsigned __int128>(next()) * static_cast<unsigned __int128>(n);
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      // 2^64 mod n: values of `lo` below this threshold over-represent some
      // quotients; reject and redraw (expected < 2 draws even at worst n).
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        m = static_cast<unsigned __int128>(next()) *
            static_cast<unsigned __int128>(n);
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform Time in [lo, hi] (picosecond granularity).
  Time time_in(Time lo, Time hi) {
    if (hi <= lo) return lo;
    const std::uint64_t span = hi.to_ps() - lo.to_ps();
    if (span == std::numeric_limits<std::uint64_t>::max()) {
      return Time::ps(next());  // degenerate full-range request
    }
    return Time::ps(lo.to_ps() + bounded(span + 1));
  }

 private:
  std::uint64_t state_;
};

/// Mixes a seed with a stream id into an independent-looking child seed: one
/// splitmix64 step over the xor, which keeps child streams decorrelated even
/// for adjacent seeds (0, 1, 2, ... — the natural campaign indexing).
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  return Rng(seed ^ stream).next();
}

/// FNV-1a's 64-bit offset basis: the hash of no bytes.
inline constexpr std::uint64_t kFnv1aBasis = 1469598103934665603ull;

/// 64-bit FNV-1a over `n` bytes, continuing from `h`. It names per-channel
/// RNG streams and fingerprints scenarios, checksums journal records and
/// hashes capture sequences.
inline std::uint64_t fnv1a(const unsigned char* p, std::size_t n,
                           std::uint64_t h = kFnv1aBasis) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// FNV-1a over the bytes of a string.
inline std::uint64_t fnv1a(std::string_view s,
                           std::uint64_t h = kFnv1aBasis) {
  return fnv1a(reinterpret_cast<const unsigned char*>(s.data()), s.size(), h);
}

/// FNV-1a over the 8 bytes of a word, least significant first, continuing
/// from `h`: the same value on every host byte order.
inline std::uint64_t fnv1a_word(std::uint64_t v, std::uint64_t h) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>(v >> (i * 8));
  }
  return fnv1a(bytes, sizeof bytes, h);
}

}  // namespace minisc
