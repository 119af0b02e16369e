#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "iss/block_cache.hpp"
#include "iss/cache.hpp"

namespace workloads {

/// Result of running a benchmark on the orsim ISS.
struct IssResult {
  long checksum = 0;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  double icache_hit_rate = 1.0;  ///< 1.0 when the cache model is disabled
  double dcache_hit_rate = 1.0;
};

/// Optional cache timing models for an ISS run (Ablation D: the library's
/// calibration is cache-less, so enabling these produces exactly the class
/// of estimation error the paper's Section 1 attributes to caches), and the
/// block-path switch (the per-instruction path is the reference that
/// ablation_iss_cache --verify compares the block path with).
struct IssCacheConfig {
  bool enable_icache = false;
  bool enable_dcache = false;
  iss::DirectMappedCache::Config icache{64, 16, 20};
  iss::DirectMappedCache::Config dcache{64, 16, 20};
  iss::BlockCacheConfig blocks{};
};

/// One of the paper's Table-1 sequential benchmarks, available in three
/// forms. All three operate on identical data and compute an identical
/// checksum, which the tests assert — the *checksums* must agree even though
/// the *costs* are independent models. The first two are one C++ text, a
/// function template over the value and array types (see data.hpp):
///
///  - reference: the template on std::int32_t and plain arrays, the
///    "original SystemC specification" baseline of the host-time columns;
///  - annotated: the template on scperf::gint and garray<int> — running it
///    with an active SegmentAccum yields the library's cycle estimate;
///  - iss: the same algorithm hand-compiled to orsim assembly, cycle-counted
///    by the ISS — the paper's "target platform estimation" reference —
///    with the cache timing models its argument enables (`iss({})`: none).
struct Benchmark {
  std::string name;
  std::function<long()> reference;
  std::function<long()> annotated;
  std::function<IssResult(const IssCacheConfig&)> iss;
};

Benchmark make_fir();        ///< 16-tap FIR over 256 samples (Q12)
Benchmark make_compress();   ///< run-length encoding of a 1 KiB buffer
Benchmark make_quicksort();  ///< explicit-stack quicksort, 512 elements
Benchmark make_bubble();     ///< bubble sort, 128 elements
Benchmark make_fibonacci();  ///< recursive fib(18)
Benchmark make_array();      ///< element-wise array arithmetic, 256 elements

/// Out-of-sample validation workload (NOT part of table1_suite() and NOT in
/// the calibration set): 24x24 integer matrix multiply. Its estimation error
/// measures how the calibrated weights generalise to unseen code.
Benchmark make_matrix();

/// The full Table-1 suite in the paper's row order.
const std::vector<Benchmark>& table1_suite();

}  // namespace workloads
