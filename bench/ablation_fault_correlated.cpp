// Correlated-fault ablation. Three questions on the same 64-frame streaming
// workload (source -> lossy link -> loss-concealing sink):
//
//  1. Do bursts matter? A Gilbert-Elliott loss channel versus the i.i.d.
//     channel with the SAME long-run loss rate. The sink conceals isolated
//     losses (neighbour interpolation, the vocoder trick), so the deadline
//     miss rate is driven by *consecutive* losses - which only the burst
//     model produces in quantity. Rate-matched marginals, materially
//     different miss rates.
//
//  2. Does importance sampling pay? In a rare-loss regime (0.4% drops) the
//     campaign simulates an 8x-inflated channel and re-weights every run by
//     its likelihood ratio (scfault::channel_log_lr over the channel's draw
//     record). The weighted estimate must agree with a naive Monte-Carlo
//     reference that uses 10x more runs, within the weighted ci95.
//
//  3. Do outage storms differ from scattered outages? A Poisson-cluster
//     storm concentrates the same outage budget into one window; backlog
//     compounds and the late-frame count grows versus uniform scatter.
//
// A mapping x scenario CampaignSweep grid (shared vs split CPU, iid vs
// burst vs storm) closes the loop back to the paper's design-space
// exploration: which mapping stays schedulable under which fault regime.
//
// Usage: ablation_fault_correlated [scale_pct] [--threads N]
//   scale_pct (default 100) scales every campaign's run count; the CI smoke
//   run uses a small value and then only the determinism gate is asserted.
//   --threads N runs every campaign on N threads and adds a speedup
//   section: the burst campaign is timed sequentially and threaded, the two
//   CSVs must be byte-identical (the determinism gate of the parallel
//   executor), and the wall-clock ratio is reported.
//
//   Fleet flags (fleet_cli.hpp) run the mapping x scenario sweep as a sweep
//   fleet, the one durable way to run it: every grid cell is a
//   lease-claimable unit (one lease + one journal per cell in --shard-dir,
//   default fault_correlated_sweep.shard/ next to the binary).
//   --shard i/N (or --shard-dir alone) runs a worker that starts at cell i;
//     workers spread across cells, adopt stale leases, and quarantine a cell
//     after --max-adoptions failed adoptions (default 3).
//   --merge  folds the cell journals back into the sweep grid + CSV,
//     byte-identical to the uninterrupted fault_correlated_sweep.csv;
//     --allow-partial degrades it explicitly (exit 3).
//   --status  read-only per-cell fleet progress (exit 0 once every cell is
//     done or quarantined, 1 while the fleet is still working).
//
//   Sequential model checking — SPRT early stopping vs fixed-N:
//   --smc  runs the burst cell under a Wald SPRT (H: P(run violates) <= 0.2
//     at alpha = beta = 0.05), checks the verdict against the fixed-N
//     reference campaign's empirical rate, checks the SPRT CSV is
//     byte-identical across thread counts {seq, 1, 8}, records the verdict
//     in fault_correlated_smc.journal, and demos adaptive importance
//     sampling (pilot-tuned bias factor) feeding a weighted SPRT on the
//     rare-loss cell. With --resume the journal's decision record replays
//     without executing a single run ("smc journal resume: decision
//     replayed"). At scale >= 100 the early-stop economics are asserted:
//     SPRT samples <= 25% of the fixed-N budget.
//   --poison-cell m/s  fault-injection for the fleet itself: any worker
//     that executes a run of cell m/s raises SIGKILL — the crash-loop
//     scenario the quarantine machinery exists for (CI uses this).

#include <csignal>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/capture.hpp"
#include "core/scperf.hpp"
#include "fault/channels.hpp"
#include "fault/injector.hpp"
#include "kernel/error.hpp"
#include "trace/campaign.hpp"
#include "trace/shard.hpp"
#include "trace/smc.hpp"

#include "fleet_cli.hpp"

namespace {

using minisc::Time;
using sctrace::CampaignRunResult;

constexpr int kFrames = 64;
constexpr double kCpuMhz = 100.0;        // 10 ns / cycle
constexpr int kStageCycles = 100;        // 1 us of work per frame per stage
constexpr auto kPeriod = Time::us(5);    // source frame period
constexpr auto kDeadline = Time::us(20); // end-to-end budget per frame
constexpr auto kTimeout = Time::us(15);  // sink read_for budget
constexpr auto kHorizon = Time::ms(1);

// Gilbert-Elliott burst channel: pi_bad = 0.06/(0.06+0.24) = 0.2, so the
// marginal loss rate is 0.2 * 0.35 = 7% - the i.i.d. scenario below matches
// it exactly. In the bad state consecutive writes are lost with
// P(loss | previous loss) ~ (1 - p_exit) * bad_drop_p = 0.26 >> 0.07.
constexpr double kBurstEnter = 0.06;
constexpr double kBurstExit = 0.24;
constexpr double kBurstDrop = 0.35;
constexpr double kIidDrop =
    kBurstEnter / (kBurstEnter + kBurstExit) * kBurstDrop;  // 0.07

// Rare regime for the importance-sampling comparison.
constexpr double kRareDrop = 0.004;
constexpr double kBiasFactor = 8.0;

scperf::CostTable add_only_table() {
  scperf::CostTable t;
  t.set(scperf::Op::kAdd, 1.0);
  return t;
}

scperf::EnergyTable add_energy_table() {
  scperf::EnergyTable t;
  t.set(scperf::Op::kAdd, 5.0);  // pJ per add
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

scfault::ChannelFaultSpec iid_spec(double drop_p) {
  return {"link", drop_p, 0.0, 0.0, Time::zero(), Time::zero(), {}};
}

scfault::ChannelFaultSpec burst_spec() {
  scfault::ChannelFaultSpec s =
      {"link", 0.0, 0.0, 0.0, Time::zero(), Time::zero(), {}};
  s.burst = scfault::GilbertElliottSpec{kBurstEnter, kBurstExit, kBurstDrop,
                                        0.0, 0.0};
  return s;
}

struct RunOptions {
  scfault::ScenarioConfig cfg;
  bool split_cpu = false;   ///< sink on its own CPU
  bool conceal = true;      ///< neighbour interpolation hides isolated losses
  /// When set, the run simulated cfg's (biased) channel spec and the result
  /// is weighted by the likelihood ratio against this nominal spec.
  std::optional<scfault::ChannelFaultSpec> nominal;
};

CampaignRunResult run_stream(std::uint64_t seed, const RunOptions& opt) {
  scfault::FaultScenario scenario(opt.cfg, seed);

  minisc::Simulator sim;
  minisc::Watchdog wd;
  wd.max_deltas_per_instant = 100000;
  wd.wall_clock_ms = 30000;
  sim.set_watchdog(wd);

  scperf::Estimator est(sim);
  auto& cpu0 = est.add_sw_resource("cpu0", kCpuMhz, add_only_table(),
                                   {.rtos_cycles_per_switch = 20});
  scperf::SwResource* cpu1 = &cpu0;
  if (opt.split_cpu) {
    cpu1 = &est.add_sw_resource("cpu1", kCpuMhz, add_only_table(),
                                {.rtos_cycles_per_switch = 20});
  }
  for (auto& r : est.resources()) {
    r->set_energy_table(add_energy_table());
    r->set_fault_energy_per_cycle_pj(2.0);
  }
  est.map("source", cpu0);
  est.map("sink", *cpu1);

  scfault::FaultInjector inj(sim, est, scenario);

  scfault::FaultyFifo<Token> link("link", 64);
  link.attach(scenario);

  scperf::CaptureRegistry reg;
  scperf::CapturePoint delivered("delivered", reg);
  std::map<int, Time> arrival;  // first arrival time per frame id
  std::map<int, Time> born;     // emission time, known even for lost frames
  std::vector<Time> arrival_order;
  bool source_done = false;

  sim.spawn("source", [&] {
    for (int id = 0; id < kFrames; ++id) {
      burn(kStageCycles);
      born[id] = minisc::now();
      link.write(Token{id, minisc::now()});
      minisc::wait(kPeriod);
    }
    source_done = true;
  });

  sim.spawn("sink", [&] {
    while (true) {
      auto t = link.read_for(kTimeout);
      if (!t.has_value()) {
        if (source_done) break;
        continue;
      }
      burn(kStageCycles);
      if (arrival.emplace(t->id, minisc::now()).second) {
        delivered.record(t->id);
        arrival_order.push_back(minisc::now());
      }
    }
  });

  sim.run(kHorizon);

  // A frame makes its deadline if it arrived in time, or - with concealment
  // on - if it can be interpolated from both neighbours that did. Bursts
  // defeat interpolation: two consecutive losses leave a frame with a
  // missing neighbour.
  auto on_time = [&](int id) {
    if (id < 0 || id >= kFrames) return true;  // boundary: treat as present
    const auto it = arrival.find(id);
    const auto bit = born.find(id);
    if (bit == born.end()) return false;  // never even emitted
    return it != arrival.end() && it->second <= bit->second + kDeadline;
  };
  CampaignRunResult r;
  r.seed = seed;
  r.deadline_total = kFrames;
  for (int id = 0; id < kFrames; ++id) {
    bool ok = on_time(id);
    if (!ok && opt.conceal) ok = on_time(id - 1) && on_time(id + 1);
    if (!ok) ++r.deadline_missed;
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
                      inj.crashes_applied() + link.dropped() +
                      link.duplicated() + link.delayed();
  r.energy_pj = est.total_energy_pj();
  r.fault_energy_pj = est.fault_energy_pj();
  if (opt.nominal.has_value()) {
    r.log_weight = scfault::channel_log_lr(
        *opt.nominal, opt.cfg.channel_faults.at(0), link.fault_counts());
  }
  r.value_hash = reg.value_sequence_hash();
  return r;
}

RunOptions scenario_options(const std::string& name, bool split_cpu) {
  RunOptions opt;
  opt.split_cpu = split_cpu;
  opt.cfg.horizon = Time::us(400);
  if (name == "iid") {
    opt.cfg.channel_faults.push_back(iid_spec(kIidDrop));
  } else if (name == "burst") {
    opt.cfg.channel_faults.push_back(burst_spec());
  } else if (name == "scatter") {
    opt.cfg.channel_faults.push_back(iid_spec(kIidDrop));
    opt.cfg.outages.push_back({"cpu0", 5, Time::us(10), Time::us(20)});
  } else if (name == "storm") {
    opt.cfg.channel_faults.push_back(iid_spec(kIidDrop));
    opt.cfg.storms.push_back(
        {"cpu0", 1, 0.8, 8, Time::us(100), Time::us(10), Time::us(20)});
  }
  return opt;
}

/// Campaign execution options for the whole bench, set by --threads (and
/// --resume, which only the --smc decision journal reads).
sctrace::CampaignOptions g_campaign_opts;

// Sweep fleet mode: grid cells as lease-claimable units in g_fleet.shard_dir.
FleetCli g_fleet;
/// "mapping/scenario" whose runs SIGKILL the executing worker ("" = none):
/// the deliberate poison cell for the quarantine crash-loop CI gate.
std::string g_poison_cell;

/// --smc: sequential model-checking mode (exclusive, like the fleet modes).
bool g_smc = false;

/// CSV artifacts land next to the binary (build/bench/), not in the
/// caller's cwd, so runs never litter the source tree.
std::string g_out_dir;

std::string out_path(const char* name) { return g_out_dir + name; }

sctrace::CampaignReport campaign(const RunOptions& opt, std::uint64_t seed,
                                 std::size_t n, const char* csv_name) {
  sctrace::FaultCampaign c(
      [&opt](std::uint64_t s) { return run_stream(s, opt); });
  c.run(seed, n, g_campaign_opts);
  if (csv_name != nullptr) {
    std::ofstream csv(out_path(csv_name));
    c.write_csv(csv);
  }
  return c.report();
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Times one burst campaign run with the given options and returns its CSV
/// (for the byte-identical gate) alongside the wall-clock seconds.
std::string timed_burst_csv(std::size_t n, const sctrace::CampaignOptions& o,
                            std::uint64_t seed, double* seconds) {
  const RunOptions opt = scenario_options("burst", /*split_cpu=*/false);
  sctrace::FaultCampaign c(
      [&opt](std::uint64_t s) { return run_stream(s, opt); });
  const auto t0 = std::chrono::steady_clock::now();
  c.run(seed, n, o);
  *seconds = seconds_since(t0);
  std::ostringstream csv;
  c.write_csv(csv);
  return csv.str();
}

std::size_t scaled(std::size_t n, int pct) {
  const std::size_t s = n * static_cast<std::size_t>(pct) / 100;
  return s < 4 ? 4 : s;
}

// ---- mapping x scenario sweep (in process, or as a sweep fleet) ------------

const std::vector<std::string>& sweep_mappings() {
  static const std::vector<std::string> v = {"shared_cpu", "split_cpu"};
  return v;
}

const std::vector<std::string>& sweep_scenarios() {
  static const std::vector<std::string> v = {"iid", "burst", "storm"};
  return v;
}

/// The sweep's cell factory, for the in-process CampaignSweep and the sweep
/// fleet alike, with the poison-cell hook: a process told to poison "m/s"
/// SIGKILLs itself the moment it executes a run of that cell — no cleanup,
/// no journal close, exactly the crash a dying host produces. The fleet must
/// heal around it: survivors adopt the cell, die the same way, and the
/// adoption counter quarantines it.
sctrace::CampaignSweep::Factory sweep_factory() {
  return [](const std::string& mapping, const std::string& scenario) {
    const RunOptions opt = scenario_options(scenario, mapping == "split_cpu");
    const bool poison = !g_poison_cell.empty() &&
                        g_poison_cell == mapping + "/" + scenario;
    return [opt, poison](std::uint64_t s) {
      if (poison) ::kill(::getpid(), SIGKILL);
      return run_stream(s, opt);
    };
  };
}

int run_sweep_worker(std::size_t n_sweep, std::uint64_t seed) {
  sctrace::CampaignOptions co = g_campaign_opts;
  co.journal_tag = "correlated-sweep";
  const std::string who = "sweep worker " +
                          std::to_string(g_fleet.shard_index) + "/" +
                          std::to_string(g_fleet.shard_count);
  std::printf("%s over %zux%zu cells x %zu runs, dir %s\n", who.c_str(),
              sweep_mappings().size(), sweep_scenarios().size(), n_sweep,
              g_fleet.shard_dir.c_str());
  const sctrace::ShardProgress p = sctrace::run_sharded_sweep(
      sweep_mappings(), sweep_scenarios(), sweep_factory(), seed, n_sweep,
      g_fleet.worker_options(g_fleet.shard_dir), co);
  print_worker_summary(who, p, "cells", "sweep");
  return 0;
}

int run_sweep_merge() {
  try {
    const sctrace::MergedSweep merged =
        sctrace::merge_sweep_dir(g_fleet.shard_dir, g_fleet.merge_options());
    std::printf("merged sweep: %zu of %zu cells complete\n",
                merged.complete_cells(), merged.cells.size());
    std::ostringstream grid;
    merged.print(grid);
    std::fputs(grid.str().c_str(), stdout);
    std::ofstream csv(out_path("fault_correlated_sweep.csv"));
    merged.write_csv(csv);
    std::printf("  per-cell rows -> %s\n",
                out_path("fault_correlated_sweep.csv").c_str());
    // 3 = degraded-but-emitted, distinct from both success and refusal so
    // scripts can tell "publishable" from "salvaged" without parsing output.
    return merged.complete ? 0 : 3;
  } catch (const minisc::SimError& e) {
    std::printf("MERGE REFUSED: %s\n", e.what());
    return 1;
  }
}

// ---- sequential model checking mode ----------------------------------------

/// --smc: SPRT early stopping against the fixed-N reference on the burst
/// cell (clear margin: about half of all burst runs miss a deadline, far
/// above the 0.2 threshold), thread-count byte-identity, a durable decision
/// record, and the adaptive-IS + weighted-SPRT pipeline on the rare cell.
int run_smc(int pct, std::uint64_t seed) {
  const bool full = pct >= 100;
  const std::size_t n_fix = scaled(150, pct);
  const RunOptions opt = scenario_options("burst", /*split_cpu=*/false);
  const auto fn = [opt](std::uint64_t s) { return run_stream(s, opt); };

  // The burst cell's per-run violation rate sits near 0.53 (concealment
  // hides isolated losses; only bursts get through), so a 0.2 threshold
  // leaves the clear margin the early-stop economics check needs.
  sctrace::SmcSpec spec;
  spec.method = sctrace::SmcMethod::kSprt;
  spec.threshold = 0.2;
  spec.delta = 0.05;

  // Fixed-N reference: the budget SPRT competes against, and the empirical
  // violation rate its verdict must agree with.
  sctrace::FaultCampaign ref(fn);
  ref.run(seed, n_fix, g_campaign_opts);
  std::size_t violations = 0;
  for (const CampaignRunResult& r : ref.results()) {
    if (sctrace::run_violates(r)) ++violations;
  }
  const double p_hat =
      n_fix == 0 ? 0.0 : static_cast<double>(violations) / n_fix;
  const bool fixed_accept = p_hat <= spec.threshold;
  std::printf("== sequential model checking, burst cell ==\n");
  std::printf("  fixed-N reference: %zu runs, violation rate %.3f -> "
              "P(violation) %s %.2f\n",
              n_fix, p_hat, fixed_accept ? "<=" : ">", spec.threshold);

  // SPRT, byte-identical across thread counts: the stopping seed must be a
  // pure function of the seed stream, never of worker interleaving.
  std::string csv_ref;
  sctrace::SmcVerdict verdict{};
  for (const std::size_t threads : {std::size_t{0}, std::size_t{1},
                                    std::size_t{8}}) {
    sctrace::CampaignOptions co;
    co.threads = threads;
    co.smc = spec;
    sctrace::FaultCampaign c(fn);
    c.run(seed, n_fix, co);
    std::ostringstream csv;
    c.write_csv(csv);
    if (csv_ref.empty()) {
      csv_ref = csv.str();
      if (c.smc_verdict() != nullptr) verdict = *c.smc_verdict();
    } else if (csv.str() != csv_ref) {
      std::printf("FAIL: %zu-thread SPRT CSV differs from sequential\n",
                  threads);
      return 1;
    }
  }
  std::printf("  SPRT: verdict %s after %llu samples "
              "(log-ratio %.3f vs bound %.3f) — CSV byte-identical "
              "across {seq,1,8} threads\n",
              sctrace::to_string(verdict.outcome),
              static_cast<unsigned long long>(verdict.samples_used),
              verdict.log_ratio, verdict.bound);
  if (full) {
    if (!verdict.decided()) {
      std::printf("FAIL: SPRT undecided on a clear-margin cell\n");
      return 1;
    }
    const bool sprt_accept = verdict.outcome == sctrace::SmcOutcome::kAccept;
    if (sprt_accept != fixed_accept) {
      std::printf("FAIL: SPRT verdict disagrees with the fixed-N rate\n");
      return 1;
    }
    if (verdict.samples_used * 4 > n_fix) {
      std::printf("FAIL: SPRT spent %llu samples, more than 25%% of the "
                  "fixed-N budget (%zu)\n",
                  static_cast<unsigned long long>(verdict.samples_used),
                  n_fix);
      return 1;
    }
    std::printf("  early-stop economics: %llu of %zu seeds (%.0f%%)\n",
                static_cast<unsigned long long>(verdict.samples_used), n_fix,
                100.0 * static_cast<double>(verdict.samples_used) /
                    static_cast<double>(n_fix));
  }

  // Durable decision: journal the SPRT campaign; on --resume the decision
  // record replays the verdict without executing a single run, and the CSV
  // must stay byte-identical to the uninterrupted run.
  std::atomic<std::size_t> calls{0};
  sctrace::FaultCampaign jc([&](std::uint64_t s) {
    calls.fetch_add(1, std::memory_order_relaxed);
    return fn(s);
  });
  sctrace::CampaignOptions jo;
  jo.smc = spec;
  jo.journal_path = out_path("fault_correlated_smc.journal");
  jo.journal_tag = "correlated-smc";
  jo.scenario_digest = scfault::config_digest(opt.cfg);
  jo.resume = g_campaign_opts.resume;
  jc.run(seed, n_fix, jo);
  if (jo.resume && calls.load(std::memory_order_relaxed) == 0 &&
      jc.smc_verdict() != nullptr && jc.smc_verdict()->decided()) {
    std::printf("smc journal resume: decision replayed\n");
  }
  {
    std::ostringstream csv;
    jc.write_csv(csv);
    if (csv.str() != csv_ref) {
      std::printf("FAIL: journaled SPRT CSV differs from the in-memory run\n");
      return 1;
    }
    std::ofstream out(out_path("fault_correlated_smc.csv"));
    out << csv.str();
  }
  std::printf("  decision journaled -> %s (CSV -> %s)\n",
              out_path("fault_correlated_smc.journal").c_str(),
              out_path("fault_correlated_smc.csv").c_str());

  // Adaptive importance sampling on the rare-loss cell: a pilot search
  // tunes the bias factor to a healthy ESS fraction, then a weighted SPRT
  // decides the nominal hypothesis from the biased runs.
  RunOptions nom = scenario_options("iid", /*split_cpu=*/false);
  nom.cfg.channel_faults.at(0) = iid_spec(kRareDrop);
  nom.conceal = false;
  const auto make_run =
      [nom](double factor) -> sctrace::FaultCampaign::RunFn {
    RunOptions biased = nom;
    biased.cfg.channel_faults.at(0) = iid_spec(kRareDrop * factor);
    biased.nominal = iid_spec(kRareDrop);
    return [biased](std::uint64_t s) { return run_stream(s, biased); };
  };
  sctrace::AdaptiveBiasOptions ao;
  ao.pilot_runs = 16;
  ao.max_factor = kBiasFactor * 4.0;
  const sctrace::AdaptiveBiasResult tuned =
      sctrace::tune_bias_factor(make_run, seed + 7000, ao);
  std::printf("== adaptive IS + weighted SPRT, %.2f%% nominal loss ==\n",
              kRareDrop * 100.0);
  std::printf("  pilot chose bias factor %.2f (ESS fraction %.2f, %zu pilot "
              "seeds over %zu probes)\n",
              tuned.factor, tuned.ess_fraction, tuned.pilot_runs,
              tuned.trace.size());
  sctrace::SmcSpec wspec;
  wspec.method = sctrace::SmcMethod::kSprt;
  wspec.threshold = 0.4;
  wspec.delta = 0.1;
  wspec.use_weights = true;
  sctrace::CampaignOptions wo = g_campaign_opts;
  wo.smc = wspec;
  sctrace::FaultCampaign wc(make_run(tuned.factor));
  wc.run(seed, n_fix, wo);
  const sctrace::SmcVerdict* wv = wc.smc_verdict();
  std::printf("  weighted SPRT: verdict %s after %llu samples "
              "(estimate %.3f, ESS %.1f)\n",
              sctrace::to_string(wv->outcome),
              static_cast<unsigned long long>(wv->samples_used),
              wv->estimate, wv->ess);

  // Ablation K inputs: seeds spent per strategy on the same questions.
  std::printf("  seeds used: fixed-N %zu, SPRT %llu, adaptive-IS pilot + "
              "weighted SPRT %llu\n",
              n_fix,
              static_cast<unsigned long long>(verdict.samples_used),
              static_cast<unsigned long long>(tuned.pilot_runs +
                                              wv->samples_used));
  std::printf("smc checks passed%s\n",
              full ? "" : " (economics need scale >= 100)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (const char* slash = std::strrchr(argv[0], '/')) {
    g_out_dir.assign(argv[0], static_cast<std::size_t>(slash - argv[0]) + 1);
  }
  int pct = 100;
  for (int i = 1; i < argc; ++i) {
    if (g_fleet.parse(argc, argv, i)) continue;
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      g_campaign_opts.threads =
          static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      g_campaign_opts.resume = true;
    } else if (std::strcmp(argv[i], "--poison-cell") == 0 && i + 1 < argc) {
      g_poison_cell = argv[++i];
    } else if (std::strcmp(argv[i], "--smc") == 0) {
      g_smc = true;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "usage: ablation_fault_correlated [scale_pct] [options]\n"
          "\n"
          "Correlated-fault ablation: burst vs i.i.d. loss, importance\n"
          "sampling vs naive Monte Carlo, outage storms vs scatter, and a\n"
          "mapping x scenario sweep. Default mode runs every section and\n"
          "asserts its gates.\n"
          "\n"
          "  scale_pct          scale every campaign's run count (default\n"
          "                     100; gates needing statistics only assert\n"
          "                     at >= 100)\n"
          "  --threads N        run campaigns on N threads; adds the\n"
          "                     sequential-vs-threaded byte-identity and\n"
          "                     speedup section\n"
          "\n"
          "sweep fleet (the fleet flags below over the mapping x scenario\n"
          "grid, one unit per cell, in --shard-dir, default\n"
          "fault_correlated_sweep.shard/; the durable sweep):\n"
          "  --poison-cell m/s  SIGKILL any worker that executes a run of\n"
          "                     cell m/s (the quarantine crash-loop gate)\n"
          "\n"
          "sequential model checking:\n"
          "  --smc              run the burst cell under a Wald SPRT, check\n"
          "                     the verdict against the fixed-N reference,\n"
          "                     record the decision journal, and demo\n"
          "                     adaptive importance sampling; --resume\n"
          "                     replays the recorded decision\n"
          "\n");
      print_fleet_help();
      return 0;
    } else {
      pct = std::atoi(argv[i]);
    }
  }
  const bool full = pct >= 100;
  constexpr std::uint64_t kSeed = 42;
  bool ok = true;
  if (g_fleet.shard_dir.empty()) {
    g_fleet.shard_dir = out_path("fault_correlated_sweep.shard");
  }

  if (g_fleet.status) return g_fleet.print_status(g_fleet.shard_dir) ? 0 : 1;
  if (g_fleet.merge) return run_sweep_merge();
  if (g_smc) return run_smc(pct, kSeed);
  if (g_fleet.worker()) {
    // Sweep-fleet worker: grid cells as lease-claimable units. Gates are
    // skipped — the merged sweep CSV cmp against an uninterrupted run is
    // the determinism gate, and the CI crash-loop gate kills workers here
    // on purpose (--poison-cell).
    return run_sweep_worker(scaled(25, pct), kSeed);
  }

  std::printf("Correlated-fault ablation, %d-frame stream, scale %d%%, "
              "%zu campaign thread(s)\n\n",
              kFrames, pct,
              g_campaign_opts.threads == 0 ? std::size_t{1}
                                           : g_campaign_opts.threads);

  // -- determinism gate ----------------------------------------------------
  const RunOptions det = scenario_options("burst", /*split_cpu=*/false);
  const CampaignRunResult a = run_stream(kSeed, det);
  const CampaignRunResult b = run_stream(kSeed, det);
  if (a.value_hash != b.value_hash || a.makespan != b.makespan ||
      a.deadline_missed != b.deadline_missed) {
    std::printf("FAIL: same seed replayed differently\n");
    return 1;
  }
  std::printf("determinism: seed %llu replayed identically (hash %016llx)\n\n",
              static_cast<unsigned long long>(kSeed),
              static_cast<unsigned long long>(a.value_hash));

  // -- parallel execution: byte-identical output, wall-clock speedup -------
  if (g_campaign_opts.threads > 1) {
    const std::size_t n_par = scaled(150, pct);
    double seq_s = 0.0, par_s = 0.0;
    const std::string seq_csv =
        timed_burst_csv(n_par, sctrace::CampaignOptions{}, kSeed, &seq_s);
    const std::string par_csv =
        timed_burst_csv(n_par, g_campaign_opts, kSeed, &par_s);
    if (par_csv != seq_csv) {
      std::printf("FAIL: %zu-thread campaign CSV differs from sequential\n",
                  g_campaign_opts.threads);
      return 1;
    }
    std::printf("== parallel campaign, %zu runs ==\n", n_par);
    std::printf("  sequential      %.3f s\n", seq_s);
    std::printf("  %2zu threads      %.3f s  -> speedup %.2fx "
                "(CSV byte-identical)\n\n",
                g_campaign_opts.threads, par_s,
                par_s > 0.0 ? seq_s / par_s : 0.0);
  }

  // -- 1. burst vs rate-matched i.i.d. -------------------------------------
  const std::size_t n_ab = scaled(150, pct);
  const auto iid = campaign(scenario_options("iid", false), kSeed, n_ab,
                            "fault_correlated_iid.csv");
  const auto burst = campaign(scenario_options("burst", false), kSeed, n_ab,
                              "fault_correlated_burst.csv");
  std::printf("== burst vs i.i.d. at matched %.1f%% loss rate, %zu runs ==\n",
              kIidDrop * 100.0, n_ab);
  std::printf("  iid   miss rate %6.2f%% +/- %.2f%%\n", iid.miss_rate * 100.0,
              iid.miss_rate_ci95 * 100.0);
  std::printf("  burst miss rate %6.2f%% +/- %.2f%%\n",
              burst.miss_rate * 100.0, burst.miss_rate_ci95 * 100.0);
  if (full) {
    const bool separated =
        burst.miss_rate - iid.miss_rate >
        burst.miss_rate_ci95 + iid.miss_rate_ci95;
    std::printf("  material difference: %s\n",
                separated ? "YES (outside both ci95)" : "NO");
    ok = ok && separated;
  }
  std::printf("\n");

  // -- 2. importance sampling vs naive Monte Carlo -------------------------
  const std::size_t n_ref = scaled(1500, pct);
  const std::size_t n_is = scaled(150, pct);
  RunOptions naive_opt = scenario_options("iid", false);
  naive_opt.cfg.channel_faults.at(0) = iid_spec(kRareDrop);
  naive_opt.conceal = false;  // estimate the raw frame-loss rate
  RunOptions is_opt = naive_opt;
  is_opt.cfg.channel_faults.at(0) = iid_spec(kRareDrop * kBiasFactor);
  is_opt.nominal = iid_spec(kRareDrop);
  const auto ref = campaign(naive_opt, kSeed, n_ref, nullptr);
  const auto is = campaign(is_opt, kSeed, n_is, "fault_correlated_is.csv");
  std::printf("== importance sampling, %.2f%% nominal loss, %.0fx bias ==\n",
              kRareDrop * 100.0, kBiasFactor);
  std::printf("  naive reference (%zu runs): miss rate %.4f%% +/- %.4f%%\n",
              n_ref, ref.miss_rate * 100.0, ref.miss_rate_ci95 * 100.0);
  std::printf("  weighted IS     (%zu runs): miss rate %.4f%% +/- %.4f%%  "
              "(ESS %.1f, mean weight %.3f)\n",
              n_is, is.weighted_miss_rate * 100.0,
              is.weighted_miss_rate_ci95 * 100.0, is.effective_sample_size,
              is.mean_weight);
  if (full) {
    const double err = is.weighted_miss_rate - ref.miss_rate;
    const bool agrees = (err < 0 ? -err : err) <= is.weighted_miss_rate_ci95;
    const bool cheaper = n_is * 10 <= n_ref;
    std::printf("  agreement within IS ci95 at >=10x fewer runs: %s\n",
                agrees && cheaper ? "YES" : "NO");
    ok = ok && agrees && cheaper && is.importance_sampled;
  }
  std::printf("\n");

  // -- 3. outage storm vs scattered outages --------------------------------
  const std::size_t n_storm = scaled(40, pct);
  const auto scatter = campaign(scenario_options("scatter", false), kSeed,
                                n_storm, nullptr);
  const auto storm = campaign(scenario_options("storm", false), kSeed,
                              n_storm, nullptr);
  std::printf("== outage storm vs scatter, %zu runs ==\n", n_storm);
  std::printf("  scatter miss rate %6.2f%%, mean makespan %.0f ns\n",
              scatter.miss_rate * 100.0, scatter.makespan_ns.mean);
  std::printf("  storm   miss rate %6.2f%%, mean makespan %.0f ns\n\n",
              storm.miss_rate * 100.0, storm.makespan_ns.mean);

  // -- 4. mapping x scenario sweep ------------------------------------------
  const std::size_t n_sweep = scaled(25, pct);
  sctrace::CampaignSweep sweep(sweep_mappings(), sweep_scenarios(),
                               sweep_factory());
  sweep.run(kSeed, n_sweep, g_campaign_opts);
  std::ostringstream grid;
  sweep.print(grid);
  std::fputs(grid.str().c_str(), stdout);
  std::ofstream csv(out_path("fault_correlated_sweep.csv"));
  sweep.write_csv(csv);
  std::printf("  per-cell rows -> %s\n\n",
              out_path("fault_correlated_sweep.csv").c_str());

  if (full && !ok) {
    std::printf("FAIL: an acceptance check above did not hold\n");
    return 1;
  }
  std::printf("%s\n", full ? "all correlated-fault checks passed"
                           : "smoke run complete (checks need scale >= 100)");
  return 0;
}
