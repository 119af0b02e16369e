// Per-layer host costs (google-benchmark): the kernel, annotation, HLS, ISS,
// fleet lease, fleet round-trip and journal append rows.
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
// - BM_SegmentCloseSw: a process alone on a SW resource charges 10 adds and
//   writes a Signal; each iteration is one segment close plus its
//   back-annotation (RTOS switch included), with no contention.
// - BM_SegmentCloseHwDfg: the same on a HW resource recording DFGs, with 50
//   adds, so each close stores a 50-node graph.
// - BM_PlainArithmetic, BM_AnnotatedInactive, BM_ChargeSw, BM_ChargeHwDfg:
//   the host cost of the annotation fabric (Ablation C). Each iteration runs
//   `acc = acc + i * 3` 1,000 times: on plain ints (the untimed
//   specification), on annotated ints with no accumulator (estimation off:
//   one thread-local load and branch per op), or charging its 2,000 ops
//   (1,000 adds and 1,000 assignments) into a SW accumulator or a HW one,
//   which tracks ready times and records the DFG (reset every iteration, or
//   the graph would grow without bound). Items are those 2,000 ops in every
//   row. In a loop this small GCC inlines the charge path whether or not it
//   must, so these rows cannot see an out-of-line operator; the next two
//   can.
// - BM_ArrayIndexingPlain, BM_ArrayIndexingAnnotated: 256 indexed loads
//   summed per iteration, from a std::vector<int> or from a garray<int>
//   charging into a SW accumulator; compare their times per iteration.
// - BM_ChargeHwSegment: one body of workloads::fir_hw_segment() (Table 2's
//   FIR sample: 16 multiplies and an adder tree over annotated arrays, its
//   inputs generated inside the body) into an ASIC-table accumulator that
//   tracks ready times and records the DFG. Items are charged ops.
// - BM_ChargeSwKernel: vocoder::annot::lsp_estimation on frame 0, Table 3's
//   first kernel, into an orsim-table (SW) accumulator. Items are charged
//   ops.
// - BM_ForceDirectedFir: hls::force_directed at fig4_design_space's four
//   deadlines on the control-stripped DFG of the 16-tap FIR segment.
// - BM_DesignSpaceFir: one hls::design_space sweep of the same DFG.
// - BM_IssInstruction/blocks:B/icache:I: one orsim instruction, with the
//   block path on (B = 1) or off, without a cache model (I = 0) or with an
//   i-cache. Each iteration replays the ablation_iss_cache --speedup kernel
//   on one persistent Machine; items are instructions, and time_per_instr
//   is the CPU time per instruction.
// - BM_IssInstructionMem/blocks:B/icache:I: the same for a kernel that
//   streams loads and stores the way the vocoder's acb and pp loops do
//   (bench/iss_gate_kernel.hpp), so the row sees orsim's memory path.
// - BM_IssVocoder: frames 0-19 of the vocoder through a fresh IssVocoder,
//   the program of Table 3's host:ISS column (4,705,611 instructions);
//   time_per_instr is the CPU time per instruction. This is the ISS row
//   that a claim about orsim's speed should rest on: the gate kernels
//   above are a few blocks each, and their rows move with code placement.
// - BM_LeaseClaimRelease: claim a fresh shard lease in a scratch directory
//   beside the binary (layers.shard/) and release it: the O_EXCL create and
//   its sync, the heartbeat thread's start and join, the ownership probe
//   and the unlink. Timed in wall time, since most of it can be waiting on
//   the filesystem.
// - BM_FleetRoundTrip: a whole fleet's fixed cost — pin the manifest, then
//   claim, run and release 2 shards of 16 runs each of a run function that
//   returns a constant result, then merge_shard_dir — in a fresh directory
//   under layers.fleet/ beside the binary. Wall time.
// - BM_JournalAppend: one run record appended to a journal in
//   layers.journal/, fsynced every JournalWriter::kFlushEvery records as
//   shipped. Wall time; items are records.
//
// glibc's mmap and trim thresholds are pinned at startup, as perfbench does:
// with the adaptive defaults, heap history decides whether freed process
// stacks go back to the kernel and are page-faulted in again, and
// BM_Spawn8RunTeardown read ~20 us where pinned it reads ~2 us.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#if defined(__GLIBC__)  // set by the C++ headers above
#include <malloc.h>
#endif

#include "core/estimator.hpp"
#include "hls/schedule.hpp"
#include "iss/assembler.hpp"
#include "iss/machine.hpp"
#include "iss_gate_kernel.hpp"
#include "kernel/channels.hpp"
#include "kernel/error.hpp"
#include "kernel/simulator.hpp"
#include "trace/journal.hpp"
#include "trace/shard.hpp"
#include "workloads/data.hpp"
#include "workloads/hw_segments.hpp"
#include "workloads/vocoder/frames.hpp"
#include "workloads/vocoder/kernels.hpp"
#include "workloads/vocoder/kernels_asm.hpp"

namespace {

/// Directory of the binary, with its trailing slash ("" when run from it).
std::string g_bench_dir;

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

/// Each iteration charges `adds` additions and writes a Signal from the one
/// mapped process: one segment close and its back-annotation.
void run_segment_closes(benchmark::State& state, minisc::Simulator& sim,
                        int adds) {
  minisc::Signal<int> node("node");
  sim.spawn("p", [&] {
    int i = 0;
    const scperf::gint one(scperf::detail::RawTag{}, 1);
    for (auto _ : state) {
      for (int k = 0; k < adds; ++k) {
        scperf::gint r = one + k;
        benchmark::DoNotOptimize(r);
      }
      node.write(++i);
    }
  });
  if (sim.run() != minisc::StopReason::kFinished) {
    state.SkipWithError("segment closes did not finish");
  }
}

void BM_SegmentCloseSw(benchmark::State& state) {
  minisc::Simulator sim;
  scperf::Estimator est(sim);
  est.map("p", est.add_sw_resource("cpu0", 50.0, scperf::orsim_sw_cost_table(),
                                   {.rtos_cycles_per_switch = 20}));
  run_segment_closes(state, sim, 10);
}
BENCHMARK(BM_SegmentCloseSw);

/// Runs `body` once per iteration into an accumulator with the given table,
/// reset first on HW, whose every op appends a DFG node. Items are charged
/// ops.
template <typename Body>
void charge_each(benchmark::State& state, const scperf::CostTable& table,
                 bool hw, Body body) {
  scperf::SegmentAccum accum;
  accum.table = &table;
  accum.track_ready = hw;
  scperf::tl_accum = &accum;
  for (auto _ : state) {
    if (hw) accum.reset();
    body();
  }
  scperf::tl_accum = nullptr;
  std::uint64_t ops = 0;
  for (std::uint64_t n : accum.op_histogram) ops += n;
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}

/// Ops `acc = acc + i * 3` charges per iteration of the rows below.
constexpr std::int64_t kOpsPerIteration = 2000;

void BM_PlainArithmetic(benchmark::State& state) {
  for (auto _ : state) {
    int acc = 0;
    for (int i = 0; i < 1000; ++i) acc = acc + i * 3;
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * kOpsPerIteration);
}
BENCHMARK(BM_PlainArithmetic);

/// `acc = acc + i * 3` on annotated ints, 1,000 times per iteration.
constexpr auto annotated_ops = [] {
  scperf::gint acc(scperf::detail::RawTag{}, 0);
  for (int i = 0; i < 1000; ++i) acc = acc + i * 3;
  benchmark::DoNotOptimize(acc.value());
};

void BM_AnnotatedInactive(benchmark::State& state) {
  scperf::tl_accum = nullptr;
  for (auto _ : state) annotated_ops();
  state.SetItemsProcessed(state.iterations() * kOpsPerIteration);
}
BENCHMARK(BM_AnnotatedInactive);

void BM_ChargeSw(benchmark::State& state) {
  charge_each(state, scperf::orsim_sw_cost_table(), false, annotated_ops);
}
BENCHMARK(BM_ChargeSw);

void BM_ChargeHwDfg(benchmark::State& state) {
  charge_each(state, scperf::asic_hw_cost_table(), true, annotated_ops);
}
BENCHMARK(BM_ChargeHwDfg);

void BM_ArrayIndexingPlain(benchmark::State& state) {
  const std::vector<int> a(256, 7);
  for (auto _ : state) {
    int acc = 0;
    for (std::size_t i = 0; i < 256; ++i) acc += a[i];
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ArrayIndexingPlain);

void BM_ArrayIndexingAnnotated(benchmark::State& state) {
  scperf::garray<int> a(256);
  for (std::size_t i = 0; i < 256; ++i) a.at_raw(i).set_raw(7);
  charge_each(state, scperf::orsim_sw_cost_table(), false, [&] {
    scperf::gint acc(scperf::detail::RawTag{}, 0);
    for (std::size_t i = 0; i < 256; ++i) acc += a[i];
    benchmark::DoNotOptimize(acc.value());
  });
}
BENCHMARK(BM_ArrayIndexingAnnotated);

void BM_ChargeHwSegment(benchmark::State& state) {
  const workloads::HwSegment seg = workloads::fir_hw_segment();
  charge_each(state, scperf::asic_hw_cost_table(), true,
              [&] { benchmark::DoNotOptimize(seg.body()); });
}
BENCHMARK(BM_ChargeHwSegment);

void BM_ChargeSwKernel(benchmark::State& state) {
  namespace vc = workloads::vocoder;
  const scperf::garray<int> frame = workloads::load(vc::synth_frame(0));
  scperf::garray<int> lpc(vc::kOrder);
  charge_each(state, scperf::orsim_sw_cost_table(), false, [&] {
    vc::annot::lsp_estimation(frame, lpc);
    benchmark::DoNotOptimize(lpc.at_raw(0).value());
  });
}
BENCHMARK(BM_ChargeSwKernel);

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

void BM_SegmentCloseHwDfg(benchmark::State& state) {
  minisc::Simulator sim;
  scperf::Estimator est(sim);
  est.map("p", est.add_hw_resource("asic", kHwClockMhz,
                                   scperf::asic_hw_cost_table(),
                                   {.k = 0.5, .record_dfg = true}));
  run_segment_closes(state, sim, 50);
}
BENCHMARK(BM_SegmentCloseHwDfg);

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

void time_iss_kernel(benchmark::State& state, const char* kernel_asm) {
  iss::Machine m;
  m.set_block_cache_config({.enabled = state.range(0) != 0});
  if (state.range(1) != 0) m.enable_icache({64, 16, 20});
  m.load_program(iss::assemble(kernel_asm));
  m.set_reg(3, 200);
  for (auto _ : state) benchmark::DoNotOptimize(m.call("kernel"));
  const auto instrs = static_cast<double>(m.stats().instructions);
  state.SetItemsProcessed(static_cast<std::int64_t>(instrs));
  // An inverted rate: CPU seconds per instruction (printed as "...ns").
  state.counters["time_per_instr"] = benchmark::Counter(
      instrs, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_IssInstruction(benchmark::State& state) {
  time_iss_kernel(state, kIssGateKernelAsm);
}
BENCHMARK(BM_IssInstruction)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->ArgNames({"blocks", "icache"});

void BM_IssInstructionMem(benchmark::State& state) {
  time_iss_kernel(state, kIssMemKernelAsm);
}
BENCHMARK(BM_IssInstructionMem)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->ArgNames({"blocks", "icache"});

void BM_IssVocoder(benchmark::State& state) {
  std::vector<std::vector<std::int32_t>> frames;
  for (int f = 0; f < 20; ++f) {
    frames.push_back(workloads::vocoder::synth_frame(f));
  }
  double instrs = 0;
  for (auto _ : state) {
    state.PauseTiming();  // untimed: assembling the program
    workloads::vocoder::IssVocoder vc;
    state.ResumeTiming();
    long checksum = 0;
    for (const auto& frame : frames) checksum += vc.process_frame(frame);
    benchmark::DoNotOptimize(checksum);
    instrs += static_cast<double>(vc.machine().stats().instructions);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instrs));
  state.counters["time_per_instr"] = benchmark::Counter(
      instrs, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_IssVocoder)->Unit(benchmark::kMillisecond);

/// Creates an empty scratch directory beside the binary; false (with the
/// benchmark skipped) when it cannot.
bool fresh_dir(benchmark::State& state, const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (!ec) return true;
  const std::string why = "cannot create " + dir + ": " + ec.message();
  state.SkipWithError(why.c_str());
  return false;
}

void BM_LeaseClaimRelease(benchmark::State& state) {
  const std::string dir = g_bench_dir + "layers.shard";
  if (!fresh_dir(state, dir)) return;
  const std::string path = sctrace::unit_file(dir, 0, 1, ".lease");
  for (auto _ : state) {
    try {
      auto lease = sctrace::claim_shard_lease(path, "layers", 10000);
      lease->release();
    } catch (const minisc::SimError& e) {
      state.SkipWithError(e.what());
      break;
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}
BENCHMARK(BM_LeaseClaimRelease)->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_FleetRoundTrip(benchmark::State& state) {
  const std::string root = g_bench_dir + "layers.fleet";
  if (!fresh_dir(state, root)) return;
  const sctrace::CampaignRunResult constant;
  std::size_t fleet = 0;
  for (auto _ : state) {
    // A fresh fleet directory each time; all of them are removed once the
    // series ends, since unlinking fsynced files right before a fleet can
    // slow it.
    sctrace::ShardOptions so;
    so.dir = root + "/f" + std::to_string(fleet++);
    so.shard_count = 2;
    so.worker_id = "layers";
    try {
      sctrace::run_sharded_campaign(
          [&constant](std::uint64_t) { return constant; }, 0, 32, so);
      benchmark::DoNotOptimize(sctrace::merge_shard_dir(so.dir).results);
    } catch (const minisc::SimError& e) {
      state.SkipWithError(e.what());
      break;
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
}
BENCHMARK(BM_FleetRoundTrip)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_JournalAppend(benchmark::State& state) {
  const std::string dir = g_bench_dir + "layers.journal";
  if (!fresh_dir(state, dir)) return;
  sctrace::CampaignRunResult r;
  r.makespan = minisc::Time::ns(123456);
  r.deadline_total = 32;
  r.deadline_missed = 3;
  r.recovery_latencies_ns = {1500.0, 2750.5};
  r.faults_injected = 7;
  r.value_hash = 0x9e3779b97f4a7c15ull;
  std::size_t index = 0;
  try {
    sctrace::JournalHeader h;
    h.runs = std::numeric_limits<std::uint32_t>::max();
    sctrace::JournalWriter w(dir + "/append.journal", h);
    for (auto _ : state) {
      r.seed = index;
      w.append(index++, r);
    }
  } catch (const minisc::SimError& e) {
    state.SkipWithError(e.what());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(index));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}
BENCHMARK(BM_JournalAppend)->Unit(benchmark::kMicrosecond)->UseRealTime();

}  // namespace

// JSON-context injection shared with the other benches (bench_context.cpp).
void add_build_type_context();

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  mallopt(M_TRIM_THRESHOLD, 512 << 20);
#endif
  if (const char* slash = std::strrchr(argv[0], '/')) {
    g_bench_dir.assign(argv[0], static_cast<std::size_t>(slash - argv[0]) + 1);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  add_build_type_context();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
