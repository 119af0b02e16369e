// Reproduces Table 1 of the paper: "SW estimation results for sequential
// benchmarks". For each benchmark the library's estimate (annotated
// execution on a SW resource) is compared against the cycle-accurate orsim
// ISS, and the host-time columns (library overhead w.r.t. the plain
// specification, gain w.r.t. the ISS) are measured on this machine.
//
// Expected shape (paper): error below ~5%, ISS gain of two orders of
// magnitude, library overhead of one order of magnitude.

#include <chrono>
#include <cstdio>

#include "core/scperf.hpp"
#include "workloads/table1.hpp"

namespace {

constexpr double kCpuMhz = 50.0;  // target processor clock

/// The least wall time of `fn` over `reps` repetitions, in milliseconds.
template <typename Fn>
double host_ms(Fn&& fn, int reps = 5) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

struct Row {
  std::string name;
  double lib_us = 0;     // library-estimated target time
  double iss_us = 0;     // ISS target time
  double err_pct = 0;
  double host_ref_ms = 0;
  double host_lib_ms = 0;
  double host_iss_ms = 0;
};

Row run_benchmark(const workloads::Benchmark& b) {
  Row row;
  row.name = b.name;

  // Baseline: the untimed "original SystemC specification".
  long ref_checksum = 0;
  row.host_ref_ms = host_ms([&] {
    minisc::Simulator sim;
    sim.spawn(b.name, [&] { ref_checksum = b.reference(); });
    sim.run();
  });

  // Library estimation: annotated execution on a 50 MHz SW resource.
  double lib_cycles = 0;
  long lib_checksum = 0;
  row.host_lib_ms = host_ms([&] {
    minisc::Simulator sim;
    scperf::Estimator est(sim);
    auto& cpu = est.add_sw_resource("cpu", kCpuMhz,
                                    scperf::orsim_sw_cost_table());
    est.map(b.name, cpu);
    sim.spawn(b.name, [&] { lib_checksum = b.annotated(); });
    sim.run();
    lib_cycles = est.process_cycles(b.name);
  });

  // ISS reference.
  workloads::IssResult iss{};
  row.host_iss_ms = host_ms([&] { iss = b.iss({}); });

  if (ref_checksum != lib_checksum || ref_checksum != iss.checksum) {
    std::printf("!! %s: checksum mismatch (ref %ld, lib %ld, iss %ld)\n",
                b.name.c_str(), ref_checksum, lib_checksum, iss.checksum);
  }

  row.lib_us = lib_cycles / kCpuMhz;
  row.iss_us = static_cast<double>(iss.cycles) / kCpuMhz;
  row.err_pct = 100.0 * (row.lib_us - row.iss_us) / row.iss_us;
  return row;
}

}  // namespace

int main() {
  std::printf("Table 1: SW estimation results for sequential benchmarks\n");
  std::printf("(target processor: orsim @ %.0f MHz)\n\n", kCpuMhz);
  std::printf(
      "%-12s | %12s %12s %8s | %10s %10s %10s | %9s %9s\n", "Benchmark",
      "Library(us)", "ISS(us)", "Err(%)", "host:spec", "host:lib", "host:ISS",
      "Overhead", "Gain");
  std::printf(
      "-------------+--------------------------------------+------------------"
      "----------------+--------------------\n");
  for (const auto& b : workloads::table1_suite()) {
    const Row r = run_benchmark(b);
    const double overhead =
        r.host_ref_ms > 0 ? r.host_lib_ms / r.host_ref_ms : 0.0;
    const double gain = r.host_lib_ms > 0 ? r.host_iss_ms / r.host_lib_ms : 0.0;
    std::printf(
        "%-12s | %12.1f %12.1f %8.2f | %8.3fms %8.3fms %8.3fms | %8.1fx "
        "%8.1fx\n",
        r.name.c_str(), r.lib_us, r.iss_us, r.err_pct, r.host_ref_ms,
        r.host_lib_ms, r.host_iss_ms, overhead, gain);
  }
  return 0;
}
