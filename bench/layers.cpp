// Per-layer host costs (google-benchmark): the kernel and HLS rows.
//
//   ./build/bench/layers [--benchmark_format=json]
//
// - BM_ProcessHandoff: two processes take turns through immediate
//   Event::notify; each iteration is one handoff, i.e. one dispatch and one
//   yield.
// - BM_FifoRoundTrip: an untimed minisc Fifo request/response round trip.
// - BM_FifoRoundTripSwMapped: the same round trip with an Estimator mapping
//   both ends to SW resources, so every channel access closes a segment and
//   back-annotates its delay.
// - BM_Spawn8RunTeardown: build a Simulator, spawn 8 processes that wait
//   once, run it and destroy it.
// - BM_ForceDirectedFir: hls::force_directed at fig4_design_space's four
//   deadlines on the control-stripped DFG of the 16-tap FIR segment.
// - BM_DesignSpaceFir: one hls::design_space sweep of the same DFG.

#include <benchmark/benchmark.h>

#include <string>

#include "core/estimator.hpp"
#include "hls/schedule.hpp"
#include "kernel/channels.hpp"
#include "kernel/simulator.hpp"
#include "workloads/hw_segments.hpp"

namespace {

void BM_ProcessHandoff(benchmark::State& state) {
  minisc::Simulator sim;
  minisc::Event to_first("to_first");
  minisc::Event to_second("to_second");
  bool done = false;
  // Takes turns until the state runs out, then wakes the other player so it
  // stops too without asking the state again.
  auto take_turns = [&](minisc::Event& mine, minisc::Event& other) {
    while (!done && state.KeepRunning()) {
      other.notify();
      minisc::wait(mine);
    }
    done = true;
    other.notify();
  };
  // The waiter is spawned first: an immediate notify with nobody waiting
  // is lost, and both players would then wait forever.
  sim.spawn("second", [&] {
    minisc::wait(to_second);
    take_turns(to_second, to_first);
  });
  sim.spawn("first", [&] { take_turns(to_first, to_second); });
  if (sim.run() != minisc::StopReason::kFinished) {
    state.SkipWithError("handoff did not finish");
  }
}
BENCHMARK(BM_ProcessHandoff);

/// Round trips a counter from "client" to "server" and back through a
/// request and a response Fifo.
void run_round_trips(benchmark::State& state, minisc::Simulator& sim) {
  minisc::Fifo<long> request("request", 1);
  minisc::Fifo<long> response("response", 1);
  sim.spawn("server", [&] {
    for (long v = request.read(); v >= 0; v = request.read()) {
      response.write(v + 1);
    }
  });
  sim.spawn("client", [&] {
    long v = 0;
    for (auto _ : state) {
      request.write(v);
      v = response.read();
      benchmark::DoNotOptimize(v);
    }
    request.write(-1);
  });
  if (sim.run() != minisc::StopReason::kFinished) {
    state.SkipWithError("round trip did not finish");
  }
}

void BM_FifoRoundTrip(benchmark::State& state) {
  minisc::Simulator sim;
  run_round_trips(state, sim);
}
BENCHMARK(BM_FifoRoundTrip);

void BM_FifoRoundTripSwMapped(benchmark::State& state) {
  minisc::Simulator sim;
  scperf::Estimator est(sim);
  est.map("client", est.add_sw_resource("cpu0", 50.0,
                                        scperf::orsim_sw_cost_table()));
  est.map("server", est.add_sw_resource("cpu1", 50.0,
                                        scperf::orsim_sw_cost_table()));
  run_round_trips(state, sim);
}
BENCHMARK(BM_FifoRoundTripSwMapped);

void BM_Spawn8RunTeardown(benchmark::State& state) {
  static const std::string names[8] = {"p0", "p1", "p2", "p3",
                                       "p4", "p5", "p6", "p7"};
  for (auto _ : state) {
    minisc::Simulator sim;
    for (const std::string& name : names) {
      sim.spawn(name, [] { minisc::wait(minisc::Time::ns(1)); });
    }
    benchmark::DoNotOptimize(sim.run());
  }
}
BENCHMARK(BM_Spawn8RunTeardown);

constexpr double kHwClockMhz = 100.0;
constexpr double kHwClockNs = 1000.0 / kHwClockMhz;

/// The FIR segment's DFG as fig4_design_space schedules it: recorded on a
/// HW resource, then stripped of control.
scperf::Dfg fir_dfg() {
  const workloads::HwSegment seg = workloads::fir_hw_segment();
  minisc::Simulator sim;
  scperf::Estimator est(sim);
  est.map(seg.name, est.add_hw_resource("asic", kHwClockMhz,
                                        scperf::asic_hw_cost_table(),
                                        {.k = 0.0, .record_dfg = true}));
  sim.spawn(seg.name, [&] { (void)seg.body(); });
  sim.run();
  return hls::strip_control(est.segment_dfg(seg.name, "entry->exit"));
}

void BM_ForceDirectedFir(benchmark::State& state) {
  const scperf::Dfg dfg = fir_dfg();
  const hls::FuLibrary lib = hls::default_fu_library();
  const std::uint32_t wc =
      hls::sequential_schedule(dfg, lib, kHwClockNs).cycles;
  const std::uint32_t bc = hls::asap_chained(dfg, lib, kHwClockNs).cycles;
  for (auto _ : state) {
    for (std::uint32_t deadline :
         {wc, (wc + bc) / 2, (wc + 3 * bc) / 4, bc + 1}) {
      benchmark::DoNotOptimize(
          hls::force_directed(dfg, lib, kHwClockNs, deadline));
    }
  }
}
BENCHMARK(BM_ForceDirectedFir)->Unit(benchmark::kMillisecond);

void BM_DesignSpaceFir(benchmark::State& state) {
  const scperf::Dfg dfg = fir_dfg();
  const hls::FuLibrary lib = hls::default_fu_library();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hls::design_space(dfg, lib, kHwClockNs));
  }
}
BENCHMARK(BM_DesignSpaceFir)->Unit(benchmark::kMillisecond);

}  // namespace

// JSON-context injection shared with the other benches (bench_context.cpp).
void add_build_type_context();

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  add_build_type_context();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
