// Resilience ablation: the same 5-stage frame pipeline (vocoder-shaped:
// source -> 3 processing stages -> sink) is driven through seeded fault
// campaigns — message loss/duplication/delay on every inter-stage link, CPU
// outage windows, extra-delay pulses and a mid-run crash+restart of stage2 —
// under two designs:
//
//   non-resilient: one CPU, fixed-iteration stages with blocking reads
//                  (the textbook KPN coding style). A single dropped frame
//                  permanently stalls every stage downstream.
//   resilient:     two CPUs, loss-tolerant stages (Fifo::read_for with a
//                  timeout + completion flag), so lost frames are skipped
//                  and the pipeline keeps flowing.
//
// Per N-seed campaign the driver reports deadline-miss rate (binomial ci95),
// makespan and fault-recovery latency distributions, and writes one CSV row
// per run. A same-seed double run asserts bit-identical capture hashes —
// the determinism contract that makes campaign results reproducible.

//
// Usage: ablation_fault_resilience [--threads N] [--runs N]
//                                  [--journal] [--resume] [--smc]
//                                  [fleet flags] [--scaling] [--help]
//   --threads N runs each campaign on N threads; output is
//   byte-identical to the sequential run (verified for the resilient
//   campaign) and the wall-clock speedup is reported.
//   --runs N    overrides the number of seeds per campaign (default 24).
//   --journal   records every finished run in a crash-consistent journal
//               next to the binary (fault_resilience_<label>.journal).
//   --resume    replays completed runs from an existing journal and only
//               executes the missing seeds — kill this binary at any point
//               and rerun with --journal --resume to finish the campaign;
//               the final CSVs are byte-identical to an uninterrupted run.
//   Fleet flags (fleet_cli.hpp) run both campaigns as fleets, one per label
//   under the shared --shard-dir (default: a fault_resilience.shard/
//   directory next to the binary). Workers adopt the stale leases of
//   workers that died (SIGKILL included), re-running only their missing
//   seeds, and exit once every shard journal is complete; --merge folds the
//   journals into the same report + CSVs an uninterrupted run writes, and
//   --status prints both fleets' per-shard progress without touching them.
//   --scaling   times the resilient campaign sequentially and on {1,2,8}
//               threads and prints one JSON record (wall-clock per
//               thread count, num_cpus context, byte-identity result).
//               Single-core hosts emit "speedup": null plus a caveat
//               instead of a bogus curve.
//   --smc       additionally decides "P(run violates) <= 0.5" per design
//               with a Wald SPRT and prints each verdict with the number
//               of seeds it consumed (see ablation_fault_correlated --smc
//               for the asserted sequential-model-checking gates).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "core/capture.hpp"
#include "core/scperf.hpp"
#include "fault/channels.hpp"
#include "fault/injector.hpp"
#include "kernel/error.hpp"
#include "trace/campaign.hpp"
#include "trace/journal.hpp"
#include "trace/shard.hpp"
#include "trace/smc.hpp"

#include "fleet_cli.hpp"

namespace {

using minisc::Time;
using sctrace::CampaignRunResult;

constexpr int kTokens = 32;
constexpr double kCpuMhz = 100.0;       // 10 ns / cycle
constexpr int kStageCycles = 100;       // 1 us of work per stage per frame
constexpr auto kPeriod = Time::us(10);  // source frame period
constexpr auto kDeadline = Time::us(60);  // end-to-end budget per frame
constexpr auto kHorizon = Time::ms(2);
constexpr auto kStageTimeout = Time::us(30);  // resilient read_for budget

scperf::CostTable add_only_table() {
  scperf::CostTable t;
  t.set(scperf::Op::kAdd, 1.0);
  return t;
}

void burn(int n) {
  scperf::gint a(scperf::detail::RawTag{}, 0);
  for (int i = 0; i < n; ++i) {
    scperf::gint r = a + 1;
    (void)r;
  }
}

struct Token {
  int id = 0;
  Time born;
};

scfault::ScenarioConfig fault_model() {
  scfault::ScenarioConfig cfg;
  cfg.horizon = Time::us(300);  // faults strike while frames are in flight
  // Lossy inter-stage links: 5% drop, 2% duplicate, 10% delayed 1-5 us.
  cfg.channel_faults.push_back(
      {"*", 0.05, 0.02, 0.10, Time::us(1), Time::us(5), {}});
  // Transient slowdowns and one outage window on the primary CPU.
  cfg.pulses.push_back({"cpu0", 4, 500.0, 2000.0});
  cfg.outages.push_back({"cpu0", 1, Time::us(20), Time::us(50)});
  // Stage2 crashes mid-run and is respawned 5 us later. Restart alone is
  // not resilience: the non-resilient stage re-enters its fixed-count read
  // loop and starves on the frames lost while it was down.
  cfg.crashes.push_back({"stage2", Time::us(120), Time::us(5)});
  return cfg;
}

CampaignRunResult run_pipeline(std::uint64_t seed, bool resilient) {
  scfault::FaultScenario scenario(fault_model(), seed);

  minisc::Simulator sim;
  minisc::Watchdog wd;
  wd.max_deltas_per_instant = 100000;
  wd.wall_clock_ms = 30000;
  sim.set_watchdog(wd);

  scperf::Estimator est(sim);
  auto& cpu0 = est.add_sw_resource("cpu0", kCpuMhz, add_only_table(),
                                   {.rtos_cycles_per_switch = 20});
  scperf::SwResource* cpu1 = &cpu0;
  if (resilient) {
    cpu1 = &est.add_sw_resource("cpu1", kCpuMhz, add_only_table(),
                                {.rtos_cycles_per_switch = 20});
  }
  est.map("source", cpu0);
  est.map("stage1", cpu0);
  est.map("stage2", cpu0);
  est.map("stage3", *cpu1);
  est.map("sink", *cpu1);

  scfault::FaultInjector inj(sim, est, scenario);

  scfault::FaultyFifo<Token> ch0("ch0", 64), ch1("ch1", 64), ch2("ch2", 64),
      ch3("ch3", 64);
  for (auto* ch : {&ch0, &ch1, &ch2, &ch3}) ch->attach(scenario);

  scperf::CaptureRegistry reg;
  scperf::CapturePoint delivered("delivered", reg);
  struct Arrival {
    Time born;
    Time at;
  };
  std::map<int, Arrival> arrival;  // first arrival per frame id
  std::vector<Time> arrival_order;
  bool source_done = false;

  sim.spawn("source", [&] {
    for (int id = 0; id < kTokens; ++id) {
      burn(kStageCycles);
      ch0.write(Token{id, minisc::now()});
      minisc::wait(kPeriod);
    }
    source_done = true;
  });

  // Frames carry inter-frame state (the vocoder's LPC interpolation), so a
  // stage consumes them strictly in order. The designs differ in what they
  // do when the sequence breaks:
  //   non-resilient: wait for the exact next id. A dropped frame never
  //     arrives, later frames are discarded as protocol garbage, and the
  //     stage ends up blocked on an empty channel — everything downstream
  //     of the first loss is gone.
  //   resilient: conceal the gap (resync to the newest id) and bound every
  //     read with a timeout so even a silent upstream cannot stall it.
  auto stage = [&](scfault::FaultyFifo<Token>& in,
                   scfault::FaultyFifo<Token>& out) {
    return [&] {
      int expected = 0;
      if (resilient) {
        while (true) {
          auto t = in.read_for(kStageTimeout);
          if (!t.has_value()) {
            if (source_done) break;  // drained and upstream finished
            continue;
          }
          if (t->id < expected) continue;  // duplicate: already processed
          expected = t->id + 1;            // loss concealment: resync
          burn(kStageCycles);
          out.write(*t);
        }
      } else {
        while (expected < kTokens) {
          Token t = in.read();
          if (t.id != expected) continue;  // out-of-sequence: keep waiting
          ++expected;
          burn(kStageCycles);
          out.write(t);
        }
      }
    };
  };
  sim.spawn("stage1", stage(ch0, ch1));
  sim.spawn("stage2", stage(ch1, ch2));
  sim.spawn("stage3", stage(ch2, ch3));

  sim.spawn("sink", [&] {
    while (true) {
      auto t = resilient ? ch3.read_for(kStageTimeout)
                         : std::optional<Token>(ch3.read());
      if (!t.has_value()) {
        if (source_done) break;
        continue;
      }
      if (arrival.emplace(t->id, Arrival{t->born, minisc::now()}).second) {
        delivered.record(t->id);
        arrival_order.push_back(minisc::now());
      }
    }
  });

  sim.run(kHorizon);

  CampaignRunResult r;
  r.seed = seed;
  r.deadline_total = kTokens;
  for (int id = 0; id < kTokens; ++id) {
    const auto it = arrival.find(id);
    if (it == arrival.end() || it->second.at > it->second.born + kDeadline) {
      ++r.deadline_missed;
    }
  }
  r.makespan = arrival_order.empty() ? kHorizon : arrival_order.back();
  for (const Time ft : scenario.fault_times()) {
    for (const Time at : arrival_order) {
      if (at > ft) {
        r.recovery_latencies_ns.push_back((at - ft).to_ns_d());
        break;
      }
    }
  }
  r.faults_injected = inj.pulses_injected() + inj.outages_applied() +
                      inj.crashes_applied();
  for (auto* ch : {&ch0, &ch1, &ch2, &ch3}) {
    r.faults_injected += ch->dropped() + ch->duplicated() + ch->delayed();
  }
  r.value_hash = reg.value_sequence_hash();
  return r;
}

sctrace::CampaignOptions g_campaign_opts;
bool g_journal = false;
/// --smc: also decide "P(run violates) <= 0.5" sequentially per design.
bool g_smc = false;
/// --scaling: emit the thread-scaling curve as JSON and exit.
bool g_scaling = false;

// Fleet mode: one fleet per label under g_fleet.shard_dir.
FleetCli g_fleet;

/// CSV artifacts land next to the binary (build/bench/), not in the
/// caller's cwd, so runs never litter the source tree.
std::string g_out_dir;

/// Shared report + CSV emission: the merge path must go through the exact
/// same code as a live campaign for its output to be byte-identical.
void emit_campaign(const char* label, const sctrace::FaultCampaign& campaign) {
  std::printf("== %s mapping ==\n", label);
  std::ostringstream report;
  campaign.report().print(report);
  std::fputs(report.str().c_str(), stdout);

  std::string csv_name = g_out_dir + "fault_resilience_" + label + ".csv";
  std::ofstream csv(csv_name);
  campaign.write_csv(csv);
  std::printf("  per-run rows -> %s\n\n", csv_name.c_str());
}

/// Runs the resilient campaign under `o`, stores its wall time in
/// `*seconds` and returns its CSV: the --scaling curve and the --threads
/// parallel gate time the same thing.
std::string timed_csv(std::uint64_t base_seed, std::size_t runs,
                      const sctrace::CampaignOptions& o, double* seconds) {
  sctrace::FaultCampaign c(
      [](std::uint64_t seed) { return run_pipeline(seed, true); });
  const auto t0 = std::chrono::steady_clock::now();
  c.run(base_seed, runs, o);
  *seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::ostringstream os;
  c.write_csv(os);
  return os.str();
}

/// --scaling: the ROADMAP's open thread-scaling question, answered with data
/// where the host allows. Times the resilient campaign sequentially and on
/// {1,2,8} threads, requires every threaded CSV to be byte-identical to the
/// sequential one, and prints one machine-readable JSON record with
/// `num_cpus` context. On a single-core host a "speedup" would measure
/// executor overhead, not scaling — it is emitted as null with a stated
/// caveat so downstream tooling can't mistake it for a real curve.
int run_scaling(std::uint64_t base_seed, std::size_t runs) {
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  double seq_s = 0.0;
  const std::string seq_csv =
      timed_csv(base_seed, runs, sctrace::CampaignOptions{}, &seq_s);

  std::printf("{\n");
  std::printf("  \"bench\": \"ablation_fault_resilience --scaling\",\n");
#ifdef NDEBUG
  std::printf("  \"scperf_build_type\": \"release\",\n");
#else
  std::printf("  \"scperf_build_type\": \"debug\",\n");
#endif
  std::printf("  \"campaign\": \"resilient\",\n");
  std::printf("  \"runs\": %zu,\n", runs);
  std::printf("  \"num_cpus\": %u,\n", cpus);
  std::printf("  \"sequential_seconds\": %.6f,\n", seq_s);
  std::printf("  \"threads\": [\n");
  constexpr std::size_t kCounts[] = {1, 2, 8};
  constexpr std::size_t kN = sizeof kCounts / sizeof kCounts[0];
  bool identical = true;
  for (std::size_t i = 0; i < kN; ++i) {
    sctrace::CampaignOptions o;
    o.threads = kCounts[i];
    double s = 0.0;
    const std::string csv = timed_csv(base_seed, runs, o, &s);
    identical = identical && csv == seq_csv;
    std::printf("    {\"threads\": %zu, \"seconds\": %.6f, ", kCounts[i], s);
    if (cpus >= 2) {
      std::printf("\"speedup\": %.3f, ", s > 0.0 ? seq_s / s : 0.0);
    } else {
      std::printf("\"speedup\": null, ");
    }
    std::printf("\"csv_identical\": %s}%s\n",
                csv == seq_csv ? "true" : "false", i + 1 < kN ? "," : "");
  }
  std::printf("  ],\n");
  if (cpus >= 2) {
    std::printf("  \"caveat\": null,\n");
  } else {
    std::printf(
        "  \"caveat\": \"single-core host: threaded runs measure executor "
        "overhead, not scaling; speedups omitted\",\n");
  }
  std::printf("  \"byte_identical\": %s\n}\n", identical ? "true" : "false");
  return identical ? 0 : 1;
}

void run_shard_worker(const char* label, bool resilient,
                      std::uint64_t base_seed, std::size_t n) {
  sctrace::CampaignOptions opts = g_campaign_opts;
  opts.journal_tag = label;
  opts.scenario_digest = scfault::config_digest(fault_model());

  // Labels keep separate fleets.
  const sctrace::ShardOptions so =
      g_fleet.worker_options(g_fleet.shard_dir + "/" + label);
  const sctrace::ShardProgress p = sctrace::run_sharded_campaign(
      [resilient](std::uint64_t seed) { return run_pipeline(seed, resilient); },
      base_seed, n, so, opts);
  print_worker_summary("  [" + std::string(label) + "] worker " +
                           std::to_string(g_fleet.shard_index) + "/" +
                           std::to_string(g_fleet.shard_count),
                       p);
}

/// Returns the process exit code (see merge_exit_code).
int run_merge(const char* label) {
  sctrace::MergedCampaign merged = sctrace::merge_shard_dir(
      g_fleet.shard_dir + "/" + label, g_fleet.merge_options());
  std::printf("  [%s] merged %zu shards: %zu runs, base seed %llu\n", label,
              merged.shard_count, merged.runs,
              static_cast<unsigned long long>(merged.base_seed));
  const int rc = merge_exit_code("  [" + std::string(label) + "] ", merged);
  sctrace::FaultCampaign campaign(std::move(merged.results));
  emit_campaign(label, campaign);
  return rc;
}

/// Read-only fleet progress for both labels; exit 0 when every shard of
/// both fleets is done or quarantined, 1 otherwise.
int run_status() {
  bool all_done = true;
  for (const char* label : {"non_resilient", "resilient"}) {
    std::printf("== %s fleet ==\n", label);
    if (!g_fleet.print_status(g_fleet.shard_dir + "/" + label)) {
      all_done = false;
    }
  }
  return all_done ? 0 : 1;
}

void run_campaign(const char* label, bool resilient, std::uint64_t base_seed,
                  std::size_t n) {
  sctrace::CampaignOptions opts = g_campaign_opts;
  if (g_journal) {
    // Journals live next to the binary like the CSVs; the scenario digest
    // pins the fault model so a resume against an edited model is refused.
    opts.journal_path = g_out_dir + "fault_resilience_" + label + ".journal";
    opts.journal_tag = label;
    opts.scenario_digest = scfault::config_digest(fault_model());
    if (opts.resume) {
      std::ifstream probe(opts.journal_path, std::ios::binary);
      if (probe.peek() != std::ifstream::traits_type::eof()) {
        const sctrace::JournalContents prior =
            sctrace::read_journal(opts.journal_path);
        std::printf("  [%s] resuming: %zu of %zu runs replayed from %s\n",
                    label, prior.records.size(), n, opts.journal_path.c_str());
      }
    }
  }
  sctrace::FaultCampaign campaign(
      [resilient](std::uint64_t seed) { return run_pipeline(seed, resilient); });
  campaign.run(base_seed, n, opts);
  emit_campaign(label, campaign);
}

}  // namespace

int main(int argc, char** argv) {
  constexpr std::uint64_t kBaseSeed = 1000;
  std::size_t runs = 24;

  if (const char* slash = std::strrchr(argv[0], '/')) {
    g_out_dir.assign(argv[0], static_cast<std::size_t>(slash - argv[0]) + 1);
  }
  for (int i = 1; i < argc; ++i) {
    if (g_fleet.parse(argc, argv, i)) continue;
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      g_campaign_opts.threads =
          static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--runs") == 0 && i + 1 < argc) {
      runs = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--journal") == 0) {
      g_journal = true;
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      g_journal = true;  // --resume implies journalling
      g_campaign_opts.resume = true;
    } else if (std::strcmp(argv[i], "--smc") == 0) {
      g_smc = true;
    } else if (std::strcmp(argv[i], "--scaling") == 0) {
      g_scaling = true;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "Usage: ablation_fault_resilience [MODE] [OPTIONS]\n"
          "Modes (default: run both campaigns and print the report):\n"
          "  --scaling        time the resilient campaign sequentially and\n"
          "                   on {1,2,8} threads; print a JSON record\n"
          "                   with num_cpus context and per-count wall-clock\n"
          "                   (speedups are null + caveat on 1-core hosts)\n"
          "Options:\n"
          "  --threads N      N threads per campaign (byte-identity\n"
          "                   gated against the sequential run)\n"
          "  --runs N         seeds per campaign (default 24)\n"
          "  --journal        crash-consistent per-run journal\n"
          "  --resume         replay journal, execute only missing seeds\n"
          "  --smc            SPRT verdicts per design (demonstration)\n");
      print_fleet_help();
      return 0;
    }
  }
  const std::size_t kRuns = runs;
  if (g_fleet.shard_dir.empty()) {
    g_fleet.shard_dir = g_out_dir + "fault_resilience.shard";
  }

  if (g_scaling) {
    // Pure-JSON mode for bench artifacts: nothing else may print.
    return run_scaling(kBaseSeed, kRuns);
  }

  if (g_fleet.status) {
    // Pure observation: stat+read of the shard dir, no leases touched.
    return run_status();
  }

  if (g_fleet.merge) {
    // Merge mode touches no simulation: fold the fleet's journals back into
    // the single-process report + CSV, byte-identically, or refuse loudly.
    // --allow-partial degrades instead of refusing (exit 3, marked output).
    try {
      const int rc_a = run_merge("non_resilient");
      const int rc_b = run_merge("resilient");
      return std::max(rc_a, rc_b);
    } catch (const minisc::SimError& e) {
      std::printf("MERGE REFUSED: %s\n", e.what());
      return 1;
    }
  }

  if (g_fleet.worker()) {
    // Worker mode: skip the determinism/parallel gates (the merged output
    // is itself the determinism gate — it must cmp-equal the uninterrupted
    // single-process CSV) and go straight to claiming shards.
    std::uint64_t base_seed = kBaseSeed;
    std::size_t runs = kRuns;
    try {
      if (g_fleet.shard) {
        std::printf("shard worker %zu/%zu over %zu runs, dir %s, TTL %llu "
                    "ms\n",
                    g_fleet.shard_index, g_fleet.shard_count, runs,
                    g_fleet.shard_dir.c_str(),
                    static_cast<unsigned long long>(g_fleet.lease_ttl_ms));
      } else {
        g_fleet.read_layout(g_fleet.shard_dir + "/non_resilient", &base_seed,
                            &runs);
        std::printf("elastic shard worker (manifest layout), dir %s, TTL %llu "
                    "ms\n",
                    g_fleet.shard_dir.c_str(),
                    static_cast<unsigned long long>(g_fleet.lease_ttl_ms));
      }
      run_shard_worker("non_resilient", /*resilient=*/false, base_seed, runs);
      run_shard_worker("resilient", /*resilient=*/true, base_seed, runs);
    } catch (const minisc::SimError& e) {
      std::printf("WORKER REFUSED: %s\n", e.what());
      return 1;
    }
    return 0;
  }

  std::printf(
      "Fault-resilience ablation: %d-frame pipeline, %zu seeded scenarios\n"
      "faults per run: lossy links (5%% drop / 2%% dup / 10%% delay), 4 CPU\n"
      "pulses, one 20-50 us CPU outage, stage2 crash+restart at 120 us\n\n",
      kTokens, kRuns);

  // Determinism gate: one scenario replayed must be bit-identical.
  const CampaignRunResult a = run_pipeline(kBaseSeed, true);
  const CampaignRunResult b = run_pipeline(kBaseSeed, true);
  if (a.value_hash != b.value_hash || a.makespan != b.makespan) {
    std::printf("FAIL: same seed produced different executions\n");
    return 1;
  }
  std::printf("determinism check: seed %llu replayed identically "
              "(hash %016llx)\n\n",
              static_cast<unsigned long long>(kBaseSeed),
              static_cast<unsigned long long>(a.value_hash));

  // Parallel gate: the threaded resilient campaign must emit the sequential
  // CSV byte-for-byte; report the wall-clock ratio while we have both runs.
  if (g_campaign_opts.threads > 1) {
    double seq_s = 0.0, par_s = 0.0;
    const std::string seq_csv =
        timed_csv(kBaseSeed, kRuns, sctrace::CampaignOptions{}, &seq_s);
    const std::string par_csv =
        timed_csv(kBaseSeed, kRuns, g_campaign_opts, &par_s);
    if (par_csv != seq_csv) {
      std::printf("FAIL: %zu-thread campaign CSV differs from sequential\n",
                  g_campaign_opts.threads);
      return 1;
    }
    std::printf("parallel gate: %zu threads byte-identical, %.3f s vs "
                "%.3f s sequential (speedup %.2fx)\n\n",
                g_campaign_opts.threads, par_s, seq_s,
                par_s > 0.0 ? seq_s / par_s : 0.0);
  }

  run_campaign("non_resilient", /*resilient=*/false, kBaseSeed, kRuns);
  run_campaign("resilient", /*resilient=*/true, kBaseSeed, kRuns);

  if (g_smc) {
    // Sequential verdict per design: does "P(run violates) <= 0.5" hold?
    // Under this fault model nearly every run of either design misses at
    // least one frame, so both verdicts reject — well before the seed
    // budget runs out. Demonstration only; the correlated bench's --smc
    // mode carries the asserted gates.
    sctrace::SmcSpec spec;
    spec.method = sctrace::SmcMethod::kSprt;
    spec.threshold = 0.5;
    spec.delta = 0.05;
    sctrace::CampaignOptions o = g_campaign_opts;
    o.smc = spec;
    std::printf("\nsequential verdicts (H: P(run violates) <= %.2f):\n",
                spec.threshold);
    for (const bool resilient : {false, true}) {
      sctrace::FaultCampaign c([resilient](std::uint64_t seed) {
        return run_pipeline(seed, resilient);
      });
      c.run(kBaseSeed, kRuns, o);
      const sctrace::SmcVerdict* v = c.smc_verdict();
      std::printf("  %-13s %s after %llu of %zu seeds (estimate %.2f)\n",
                  resilient ? "resilient" : "non_resilient",
                  sctrace::to_string(v->outcome),
                  static_cast<unsigned long long>(v->samples_used), kRuns,
                  v->estimate);
    }
  }

  std::printf(
      "The strict in-order design discards everything after the first lost\n"
      "frame and ends blocked on an empty channel; the read_for-based\n"
      "design conceals gaps and keeps the miss rate near the per-frame\n"
      "fault rate.\n");
  return 0;
}
