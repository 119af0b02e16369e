// Google-benchmark context injection for bench/layers.
//
// Deliberately a leaf TU with no scperf includes: the bench measures inlined
// charging paths, and a TU that only touches benchmark.h cannot change which
// inline scperf symbols the final binary emits, so adding context keys here
// never moves the measured codegen.

#include <benchmark/benchmark.h>

// "library_build_type" in the JSON context reflects how libbenchmark itself
// was compiled (Debian ships it assert-enabled, so it reads "debug" even
// under -O3); this key records how *this* binary was built, and the CI
// bench-artifact step refuses snapshots whose value is "debug".
void add_build_type_context() {
#ifdef NDEBUG
  benchmark::AddCustomContext("scperf_build_type", "release");
#else
  benchmark::AddCustomContext("scperf_build_type", "debug");
#endif
}
