#include "workloads/data.hpp"

#include "iss/assembler.hpp"

namespace workloads {

std::vector<std::int32_t> random_vector(std::size_t n, std::uint32_t seed,
                                        std::int32_t lo, std::int32_t hi) {
  Lcg rng(seed);
  std::vector<std::int32_t> v(n);
  for (auto& x : v) x = rng.in_range(lo, hi);
  return v;
}

scperf::garray<int> load(std::span<const std::int32_t> v) {
  scperf::garray<int> g(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) g.at_raw(i).set_raw(v[i]);
  return g;
}

void store_words(iss::Machine& m, std::uint32_t addr,
                 std::span<const std::int32_t> v) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    m.write_word(addr + static_cast<std::uint32_t>(4 * i), v[i]);
  }
}

IssResult run_on_iss(const IssCacheConfig& cfg, const char* asm_src,
                     const char* fn, void (*setup)(iss::Machine&)) {
  iss::Machine m;
  m.set_block_cache_config(cfg.blocks);
  if (cfg.enable_icache) m.enable_icache(cfg.icache);
  if (cfg.enable_dcache) m.enable_dcache(cfg.dcache);
  m.load_program(iss::assemble(asm_src));
  setup(m);
  const long checksum = m.call(fn);
  IssResult r{checksum, m.stats().cycles, m.stats().instructions};
  if (m.icache() != nullptr) r.icache_hit_rate = m.icache()->hit_rate();
  if (m.dcache() != nullptr) r.dcache_hit_rate = m.dcache()->hit_rate();
  return r;
}

}  // namespace workloads
