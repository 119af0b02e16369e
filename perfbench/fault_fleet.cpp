// fault_fleet: the resilient five-stage pipeline of ablation_fault_resilience
// (lossy FaultyFifo links, CPU pulses and an outage, a crash-restart of
// stage2; 32 frames of 100-op segments per run), driven the way a fleet user
// drives one machine: one in-process worker calls
// sctrace::run_sharded_campaign on a fresh shard directory, each shard's
// seeds run on a fixed-size pool, and sctrace::merge_shard_dir folds the
// journals. One item is one seed. A calibration slice runs before every
// seed, outside the run-function span, and scales that seed's host time to
// reference time.

#include <sys/statfs.h>

#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "core/capture.hpp"
#include "core/scperf.hpp"
#include "fault/channels.hpp"
#include "fault/injector.hpp"
#include "trace/campaign.hpp"
#include "trace/shard.hpp"

namespace perfbench {
namespace {

using minisc::Time;
using sctrace::CampaignRunResult;

constexpr int kTokens = 32;
constexpr double kCpuMhz = 100.0;
constexpr int kStageCycles = 100;
constexpr auto kPeriod = Time::us(10);
constexpr auto kDeadline = Time::us(60);
constexpr auto kHorizon = Time::ms(2);
constexpr auto kStageTimeout = Time::us(30);

/// Seeds per campaign, split into shards claimed by the one worker.
constexpr std::size_t kRuns = 512;
constexpr std::size_t kShards = 4;
/// Pool threads per shard (CampaignOptions::threads; 1 = the calling thread).
constexpr std::size_t kThreads = 1;

scperf::CostTable add_only_table() {
  scperf::CostTable t;
  t.set(scperf::Op::kAdd, 1.0);
  return t;
}

void burn(int n) {
  Span s(Kind::kAnnot);
  scperf::gint a(scperf::detail::RawTag{}, 0);
  for (int i = 0; i < n; ++i) {
    scperf::gint r = a + 1;
    (void)r;
  }
}

/// The plain C++ form of burn(): the same adds, kept by the optimiser.
void plain_burn(std::uint64_t n) {
  int a = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    int r = a + 1;
    asm volatile("" : : "r"(r));
  }
}

struct Token {
  int id = 0;
  Time born;
};

scfault::ScenarioConfig fault_model() {
  scfault::ScenarioConfig cfg;
  cfg.horizon = Time::us(300);
  cfg.channel_faults.push_back(
      {"*", 0.05, 0.02, 0.10, Time::us(1), Time::us(5), {}});
  cfg.pulses.push_back({"cpu0", 4, 500.0, 2000.0});
  cfg.outages.push_back({"cpu0", 1, Time::us(20), Time::us(50)});
  cfg.crashes.push_back({"stage2", Time::us(120), Time::us(5)});
  return cfg;
}

/// Every field of a run result the journal carries, by bit pattern.
std::string encode(const CampaignRunResult& r) {
  std::string out;
  const auto put = [&out](const void* p, std::size_t n) {
    out.append(static_cast<const char*>(p), n);
  };
  const std::int64_t makespan = r.makespan.to_ps();
  put(&r.seed, sizeof r.seed);
  put(&r.completed, sizeof r.completed);
  out += r.error;
  put(&r.attempts, sizeof r.attempts);
  put(&makespan, sizeof makespan);
  put(&r.deadline_total, sizeof r.deadline_total);
  put(&r.deadline_missed, sizeof r.deadline_missed);
  for (double v : r.recovery_latencies_ns) put(&v, sizeof v);
  put(&r.faults_injected, sizeof r.faults_injected);
  put(&r.log_weight, sizeof r.log_weight);
  put(&r.energy_pj, sizeof r.energy_pj);
  put(&r.fault_energy_pj, sizeof r.fault_energy_pj);
  put(&r.value_hash, sizeof r.value_hash);
  return out;
}

std::string fs_name(const std::string& path) {
  struct statfs s {};
  if (::statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: break;
  }
  std::ostringstream os;
  os << "0x" << std::hex << static_cast<unsigned long>(s.f_type);
  return os.str();
}

class FaultFleet final : public Workload {
 public:
  explicit FaultFleet(const Env& env)
      : base_(mix64(env.seed) >> 20),
        digest_(scfault::config_digest(fault_model())) {
    dir_ = env.tmp_dir;
  }

  Phase run(double seconds, Checks& checks) override {
    Phase ph;
    {
      std::lock_guard<std::mutex> lk(mu_);
      c_ = LayerCounts{};
      c_.pool_threads = kThreads;
    }
    const std::int64_t start = now_ns();
    while ((now_ns() - start) * 1e-9 < seconds) {
      const std::string dir = dir_ + "/c" + std::to_string(campaigns_++);
      {
        std::lock_guard<std::mutex> lk(mu_);
        recorded_.clear();
        run_ms_.clear();
        run_cal_s_.clear();
      }
      sctrace::ShardOptions so;
      so.dir = dir;
      so.shard_count = kShards;
      so.worker_id = "perfbench";
      sctrace::CampaignOptions opts;
      opts.threads = kThreads;
      opts.scenario_digest = digest_;
      opts.journal_tag = "fault_fleet";

      const std::int64_t t0 = now_ns();
      sctrace::ShardProgress progress;
      {
        Span s(Kind::kCampaign, base_);
        progress = sctrace::run_sharded_campaign(
            [this](std::uint64_t seed) {
              double cal = 0.0;
              {
                Span c(Kind::kCalibrate, seed);
                cal = calibrate();
              }
              return run_fn(seed, cal);
            },
            base_, kRuns, so, opts);
      }
      sctrace::MergedCampaign merged;
      {
        Span s(Kind::kMerge, base_);
        merged = sctrace::merge_shard_dir(dir);
      }
      const std::int64_t t1 = now_ns();
      std::lock_guard<std::mutex> lk(mu_);
      // Each seed's slice ran right before it, so it saw the same share of
      // the host; the block's time leaves the slices out.
      double cal_s = 0.0;
      for (std::size_t i = 0; i < run_ms_.size(); ++i) {
        ph.add_item(run_ms_[i], run_cal_s_[i]);
        cal_s += run_cal_s_[i];
      }
      ph.add_block(kRuns, (t1 - t0) * 1e-9 - cal_s);
      c_.journal_records += merged.results.size();
      check_merge(progress, merged, checks);
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
    ph.named = {
        {"runs_per_s", ph.throughput(), "runs/s"},
        {"run_p50_ms", quantile(ph.item_ms, 0.50), "ms"},
        {"run_p99_ms", quantile(ph.item_ms, 0.99), "ms"},
        {"run_samples", static_cast<double>(ph.item_ms.size()), "count"},
    };
    return ph;
  }

  void final_checks(Checks&) override {}

  std::uint64_t sim_digest() const override { return first_csv_digest_; }

  LayerCounts counts() const override {
    std::lock_guard<std::mutex> lk(mu_);
    return c_;
  }

  std::map<std::string, std::string> context() const override {
    return {{"fault_fleet.threads", std::to_string(kThreads)},
            {"fault_fleet.shards", std::to_string(kShards)},
            {"fault_fleet.runs_per_campaign", std::to_string(kRuns)},
            {"shard_dir_filesystem", fs_name(dir_)}};
  }

 private:
  /// The campaign run function: one seeded simulation, recorded for the
  /// merge check. `cal_s` is the calibration slice timed before it.
  CampaignRunResult run_fn(std::uint64_t seed, double cal_s) {
    Span s(Kind::kRunFn, seed);
    const std::int64_t t0 = now_ns();
    CampaignRunResult r = run_pipeline(seed);
    const double ms = (now_ns() - t0) * 1e-6;
    std::string bytes = encode(r);
    std::lock_guard<std::mutex> lk(mu_);
    run_ms_.push_back(ms);
    run_cal_s_.push_back(cal_s);
    recorded_[seed] = std::move(bytes);
    return r;
  }

  void check_merge(const sctrace::ShardProgress& progress,
                   const sctrace::MergedCampaign& merged, Checks& checks) {
    if (!progress.campaign_complete || merged.results.size() != kRuns) {
      checks.fail("campaign incomplete: " +
                  std::to_string(merged.results.size()) + " of " +
                  std::to_string(kRuns) + " runs merged");
    }
    for (std::size_t i = 0; i < kRuns; ++i) {
      const std::uint64_t seed = base_ + i;
      const auto it = recorded_.find(seed);
      const bool ok = i < merged.results.size() &&
                      merged.results[i].seed == seed && it != recorded_.end() &&
                      encode(merged.results[i]) == it->second;
      checks.expect(ok, "seed " + std::to_string(seed) +
                            " missing from the merge or merged with other "
                            "bytes than the run recorded");
    }
    if (recorded_.size() != kRuns) {
      checks.fail("the run function saw " + std::to_string(recorded_.size()) +
                  " distinct seeds, expected " + std::to_string(kRuns));
    }
    std::ostringstream csv;
    sctrace::FaultCampaign(merged.results).write_csv(csv);
    Digest d;
    d.add(csv.str());
    if (first_csv_digest_ == 0) first_csv_digest_ = d.value();
    if (d.value() != first_csv_digest_) {
      checks.fail("a repeated campaign merged to a different CSV");
    }
  }

  CampaignRunResult run_pipeline(std::uint64_t seed) {
    std::optional<scfault::FaultScenario> built;
    {
      Span s(Kind::kScenario, seed);
      built.emplace(fault_model(), seed);
    }
    const scfault::FaultScenario& scenario = *built;

    minisc::Simulator sim;
    minisc::Watchdog wd;
    wd.max_deltas_per_instant = 100000;
    wd.wall_clock_ms = 30000;
    sim.set_watchdog(wd);

    scperf::Estimator est(sim);
    auto& cpu0 = est.add_sw_resource("cpu0", kCpuMhz, add_only_table(),
                                     {.rtos_cycles_per_switch = 20});
    auto& cpu1 = est.add_sw_resource("cpu1", kCpuMhz, add_only_table(),
                                     {.rtos_cycles_per_switch = 20});
    est.map("source", cpu0);
    est.map("stage1", cpu0);
    est.map("stage2", cpu0);
    est.map("stage3", cpu1);
    est.map("sink", cpu1);

    std::optional<TraceHook> inner;
    if (tracing()) inner.emplace(sim, Kind::kNode, false);
    scfault::FaultInjector inj(sim, est, scenario);
    std::optional<TraceHook> outer;
    if (tracing()) outer.emplace(sim, Kind::kInjector, true);

    scfault::FaultyFifo<Token> ch0("ch0", 64), ch1("ch1", 64),
        ch2("ch2", 64), ch3("ch3", 64);
    for (auto* ch : {&ch0, &ch1, &ch2, &ch3}) ch->attach(scenario);

    scperf::CaptureRegistry reg;
    scperf::CapturePoint delivered("delivered", reg);
    struct Arrival {
      Time born;
      Time at;
    };
    std::map<int, Arrival> arrival;
    std::vector<Time> arrival_order;
    bool source_done = false;
    std::uint64_t burned = 0;

    sim.spawn("source", [&] {
      Span body(Kind::kBody, seed);
      for (int id = 0; id < kTokens; ++id) {
        burn(kStageCycles);
        burned += kStageCycles;
        ch_write(ch0, Token{id, minisc::now()});
        minisc::wait(kPeriod);
      }
      source_done = true;
    });

    // Loss-tolerant stages: bounded reads, duplicates skipped, gaps resynced.
    auto stage = [&](scfault::FaultyFifo<Token>& in,
                     scfault::FaultyFifo<Token>& out) {
      return [&] {
        Span body(Kind::kBody, seed);
        int expected = 0;
        while (true) {
          auto t = ch_read_for(in, kStageTimeout);
          if (!t.has_value()) {
            if (source_done) break;
            continue;
          }
          if (t->id < expected) continue;
          expected = t->id + 1;
          burn(kStageCycles);
          burned += kStageCycles;
          ch_write(out, *t);
        }
      };
    };
    sim.spawn("stage1", stage(ch0, ch1));
    sim.spawn("stage2", stage(ch1, ch2));
    sim.spawn("stage3", stage(ch2, ch3));

    sim.spawn("sink", [&] {
      Span body(Kind::kBody, seed);
      while (true) {
        auto t = ch_read_for(ch3, kStageTimeout);
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

    traced_run(sim, seed, kHorizon);

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
    r.faults_injected =
        inj.pulses_injected() + inj.outages_applied() + inj.crashes_applied();
    for (auto* ch : {&ch0, &ch1, &ch2, &ch3}) {
      r.faults_injected += ch->dropped() + ch->duplicated() + ch->delayed();
    }
    r.value_hash = reg.value_sequence_hash();

    LayerCounts c;
    for (const auto& row : est.report().processes) {
      c.ops += row.ops_executed;
      c.segments += row.segments_executed;
    }
    c.deltas = sim.delta_count();
    c.cache = segment_cache_counts(est);
    c.faults_injected = r.faults_injected;
    if (tracing()) {
      Span ref(Kind::kRef, seed);
      plain_burn(burned);
    }
    std::lock_guard<std::mutex> lk(mu_);
    c_.ops += c.ops;
    c_.segments += c.segments;
    c_.deltas += c.deltas;
    for (int i = 0; i < 3; ++i) c_.cache[i] += c.cache[i];
    c_.faults_injected += c.faults_injected;
    return r;
  }

  std::uint64_t base_;
  std::uint64_t digest_;
  std::string dir_;
  std::uint64_t campaigns_ = 0;
  std::uint64_t first_csv_digest_ = 0;
  mutable std::mutex mu_;  ///< guards everything below (pool threads)
  std::map<std::uint64_t, std::string> recorded_;
  std::vector<double> run_ms_;
  std::vector<double> run_cal_s_;  ///< the slice before each run_ms_ entry
  LayerCounts c_;
};

}  // namespace

std::unique_ptr<Workload> make_fault_fleet(const Env& env) {
  return std::make_unique<FaultFleet>(env);
}

}  // namespace perfbench
