// The one splitmix64 generator and the one FNV-1a (kernel/hash.hpp), pinned
// output for output: fault timelines, channel streams, retry jitter, scenario
// digests, journal checksums and capture hashes all derive from these
// values, so a change to either function shows here first.

#include "kernel/hash.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

namespace minisc {
namespace {

TEST(Rng, OutputsArePinned) {
  Rng next(7);
  EXPECT_EQ(next.next(), 0x63cbe1e459320dd7ull);
  EXPECT_EQ(next.next(), 0x044c3cd7f43c661cull);
  EXPECT_EQ(next.next(), 0xe6984080bab12a02ull);

  Rng uniform(7);
  EXPECT_EQ(uniform.uniform(), 0x1.8f2f879164c82p-2);
  EXPECT_EQ(uniform.uniform(), 0x1.130f35fd0f18p-6);

  Rng bounded(2024);
  EXPECT_EQ(bounded.bounded(1000), 622u);
  EXPECT_EQ(bounded.bounded(1000), 97u);
  EXPECT_EQ(bounded.bounded(1000), 298u);
  EXPECT_EQ(bounded.bounded(3), 0u);
}

TEST(Rng, MixSeedIsOneStepOfTheXoredSeed) {
  EXPECT_EQ(mix_seed(1, 2), 0x1d0b14e4db018fedull);
  EXPECT_EQ(mix_seed(1, 2), Rng(1 ^ 2).next());
  EXPECT_EQ(mix_seed(42, fnv1a("pulses")), 0x729ac87a5bd88d76ull);
}

TEST(Fnv1a, StringBytesAndWordsArePinned) {
  EXPECT_EQ(fnv1a(""), kFnv1aBasis);
  EXPECT_EQ(fnv1a("scfault"), 0x5eb2395e0045615bull);

  // Bytes with the high bit set fold as unsigned values.
  const unsigned char bytes[] = {0x00, 0x7f, 0x80, 0xff, 0x01};
  EXPECT_EQ(fnv1a(bytes, sizeof bytes), 0x3f27854440b3a05eull);
  EXPECT_EQ(fnv1a(bytes + 2, 3, fnv1a(bytes, 2)), fnv1a(bytes, sizeof bytes));

  // A capture point named "\xe9t\xe9" recording 1.5, -0.0 and -3.25: each
  // name char sign-extended to a word, then each value's bit pattern.
  std::uint64_t h = kFnv1aBasis;
  for (const char c : {'\xe9', 't', '\xe9'}) {
    h = fnv1a_word(static_cast<std::uint64_t>(c), h);
  }
  for (const double v : {1.5, -0.0, -3.25}) {
    h = fnv1a_word(std::bit_cast<std::uint64_t>(v), h);
  }
  EXPECT_EQ(h, 0x6a8166afc662c6e4ull);
}

}  // namespace
}  // namespace minisc
