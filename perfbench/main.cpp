// The repository benchmark: one workload per process, set up in 15 timed
// samples (setup_s is the median), measured for --seconds, its outputs
// checked, and its metrics printed. The last line of stdout is one JSON
// object {correct, attempted, failed, metrics}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. perfbench/README.md
// defines every metric.

#include <sys/resource.h>
#include <unistd.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double Phase::throughput() const { return quantile(block_rates, 0.5); }
double Phase::ref_throughput() const { return quantile(block_ref_rates, 0.5); }

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench/out";
  std::string tmp_root = ".bench_build/perfbench/tmp";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

constexpr int kSetups = 15;
constexpr double kSetupSampleSeconds = 2e-3;

/// Pins glibc's allocator so that freed memory stays in the heap. With its
/// default, adaptive thresholds, whether the 256 KiB coroutine stacks of a
/// finished simulation are handed back to the kernel (and the next run's
/// stacks page-faulted in again) depends on what else happens to sit above
/// them in the heap. That flipped between processes and mid-run: a
/// fault_fleet seed took 1.6x as long, relative to the calibration, in a
/// process that re-faulted its stacks as in one that did not. Fixed
/// thresholds make every process behave the same way.
void pin_allocator() {
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  mallopt(M_TRIM_THRESHOLD, 512 << 20);
#endif
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

/// Total length of `windows` not covered by the union of `busy`.
double uncovered_s(std::vector<std::pair<std::int64_t, std::int64_t>> windows,
                   std::vector<std::pair<std::int64_t, std::int64_t>> busy) {
  std::sort(busy.begin(), busy.end());
  std::vector<std::pair<std::int64_t, std::int64_t>> merged;
  for (const auto& b : busy) {
    if (!merged.empty() && b.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, b.second);
    } else {
      merged.push_back(b);
    }
  }
  std::int64_t gap = 0;
  for (const auto& w : windows) {
    std::int64_t covered = 0;
    for (const auto& b : merged) {
      const std::int64_t lo = std::max(w.first, b.first);
      const std::int64_t hi = std::min(w.second, b.second);
      if (hi > lo) covered += hi - lo;
    }
    gap += (w.second - w.first) - covered;
  }
  return gap * 1e-9;
}

double total_s(const std::vector<std::pair<std::int64_t, std::int64_t>>& v) {
  std::int64_t t = 0;
  for (const auto& i : v) t += i.second - i.first;
  return t * 1e-9;
}

/// Time inside the campaign and merge spans when no run-function span is
/// open on any thread, calibration slices left out (trace.gap_s).
double fleet_gap_s(const Totals& t) {
  auto busy = t.run_fn;
  busy.insert(busy.end(), t.calibrate.begin(), t.calibrate.end());
  return uncovered_s(t.campaign, busy) + uncovered_s(t.merge, t.run_fn);
}

/// The per-layer metrics of BENCHMARK.json, every one on every workload: a
/// layer a workload does not use reads 0. Host times of layers that only
/// some workloads use are given as shares or rates.
std::vector<Metric> layer_metrics(const Totals& t, const LayerCounts& c,
                                  double traced_s) {
  const double run_fn_s = total_s(t.run_fn);
  // Calibration slices run inside fault_fleet's campaigns; they are the
  // benchmark's, so the trace layer's figures leave them out.
  const double campaign_s = total_s(t.campaign) - total_s(t.calibrate);
  const double fleet_s = campaign_s + total_s(t.merge);
  const auto cache_all = static_cast<double>(c.cache[0] + c.cache[1] + c.cache[2]);
  const auto bc_all = static_cast<double>(c.block_cache[0] + c.block_cache[1] +
                                          c.block_cache[2]);
  const double channel_ops = static_cast<double>(t.n(Kind::kChannel));
  return {
      {"kernel.dispatches", static_cast<double>(t.dispatches), "count"},
      {"kernel.deltas", static_cast<double>(c.deltas), "count"},
      {"kernel.ns_per_dispatch",
       ratio(t.self_s(Kind::kSimRun) * 1e9, static_cast<double>(t.dispatches)),
       "ns"},
      {"kernel.channel_ops", channel_ops, "count"},
      {"kernel.channel_self_ns", ratio(t.self_s(Kind::kChannel) * 1e9, channel_ops),
       "ns"},
      {"core.ops_charged", static_cast<double>(c.ops), "count"},
      {"core.charge_ns_per_op",
       ratio((t.self_s(Kind::kAnnot) - t.self_s(Kind::kRef)) * 1e9,
             static_cast<double>(c.ops)),
       "ns"},
      {"core.segments_closed", static_cast<double>(c.segments), "count"},
      {"core.node_self_ns",
       ratio(t.self_s(Kind::kNode) * 1e9, static_cast<double>(c.segments)), "ns"},
      {"core.cache_hit_ratio", ratio(static_cast<double>(c.cache[0]), cache_all),
       "ratio"},
      {"core.cache_hits", static_cast<double>(c.cache[0]), "count"},
      {"core.cache_misses", static_cast<double>(c.cache[1]), "count"},
      {"core.cache_bypassed", static_cast<double>(c.cache[2]), "count"},
      {"core.dfg_nodes", static_cast<double>(c.dfg_nodes), "count"},
      {"core.pool_busy_frac",
       ratio(run_fn_s, static_cast<double>(c.pool_threads) * campaign_s),
       "ratio"},
      {"iss.instructions", static_cast<double>(c.iss_instructions), "count"},
      {"iss.minstr_per_s",
       ratio(static_cast<double>(c.iss_instructions) * 1e-6,
             t.self_s(Kind::kIssFrame)),
       "Minstr/s"},
      {"iss.block_cache_hit_ratio",
       ratio(static_cast<double>(c.block_cache[0]), bc_all), "ratio"},
      {"hls.design_space_share", ratio(t.self_s(Kind::kHlsDesignSpace), traced_s),
       "ratio"},
      {"hls.force_directed_share",
       ratio(t.self_s(Kind::kHlsForceDirected), traced_s), "ratio"},
      {"hls.extremes_share", ratio(t.self_s(Kind::kHlsExtremes), traced_s),
       "ratio"},
      {"hls.design_points", static_cast<double>(c.design_points), "count"},
      {"fault.injector_share", ratio(t.self_s(Kind::kInjector), run_fn_s),
       "ratio"},
      {"fault.scenario_build_share", ratio(t.self_s(Kind::kScenario), run_fn_s),
       "ratio"},
      {"fault.faults_injected", static_cast<double>(c.faults_injected), "count"},
      {"trace.gap_share", ratio(fleet_gap_s(t), fleet_s), "ratio"},
      {"trace.merge_share", ratio(total_s(t.merge), fleet_s), "ratio"},
      {"trace.journal_records", static_cast<double>(c.journal_records), "count"},
      {"workloads.ref_s", t.self_s(Kind::kRef), "s"},
      {"est_err_pct_max", c.est_err_pct_max, "%"},
  };
}

/// The per-layer figures under the names and units the layers are usually
/// discussed in, printed for the workloads that exercise each layer.
std::vector<Metric> layer_figures(const Totals& t, const LayerCounts& c) {
  std::vector<Metric> out;
  const auto add = [&out](const char* name, double v, const char* unit) {
    out.push_back({name, v, unit});
  };
  if (c.iss_instructions > 0) {
    add("iss.ns_per_instr",
        ratio(t.self_s(Kind::kIssFrame) * 1e9,
              static_cast<double>(c.iss_instructions)),
        "ns");
  }
  if (c.dfg_nodes > 0) {
    add("core.hw_ns_per_op",
        ratio(t.self_s(Kind::kAnnot) * 1e9, static_cast<double>(c.ops)), "ns");
    add("hls.design_space_s", t.self_s(Kind::kHlsDesignSpace), "s");
    add("hls.force_directed_s", t.self_s(Kind::kHlsForceDirected), "s");
    add("hls.extremes_s", t.self_s(Kind::kHlsExtremes), "s");
  }
  if (t.n(Kind::kInjector) > 0) {
    add("fault.injector_self_ns",
        ratio(t.self_s(Kind::kInjector) * 1e9,
              static_cast<double>(t.n(Kind::kInjector))),
        "ns/callback");
    add("fault.scenario_build_us",
        ratio(t.self_s(Kind::kScenario) * 1e6,
              static_cast<double>(t.n(Kind::kScenario))),
        "us/run");
  }
  if (!t.campaign.empty()) {
    add("trace.gap_s", fleet_gap_s(t), "s");
    add("trace.merge_s", total_s(t.merge), "s");
  }
  add("workloads.model_self_s", t.self_s(Kind::kBody), "s");
  add("core.lib_run_self_s", t.self_s(Kind::kLibRun), "s");
  return out;
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) o += ch;
  }
  return o;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out-dir") a.out_dir = v;
    else if (k == "--tmp-root") a.tmp_root = v;
    else if (k == "--commit") a.commit = v;
    else if (k == "--source-digest") a.source_digest = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

int run(const Args& a) {
  pin_allocator();
  std::function<std::unique_ptr<Workload>(const Env&)> make;
  if (a.workload == "vocoder_sw") make = make_vocoder_sw;
  else if (a.workload == "fault_fleet") make = make_fault_fleet;
  else if (a.workload == "hw_explore") make = make_hw_explore;
  else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(a.tmp_root);
  std::filesystem::create_directories(a.out_dir);
  std::string tmp = a.tmp_root + "/run.XXXXXX";
  if (::mkdtemp(tmp.data()) == nullptr) {
    std::fprintf(stderr, "perfbench: cannot create a directory in %s\n",
                 a.tmp_root.c_str());
    return 2;
  }
  // Shard directories and journals live here; it goes when the run ends.
  struct RemoveAtExit {
    std::string dir;
    ~RemoveAtExit() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } remove_at_exit{tmp};
  Env env{a.seed, tmp};

  // Earlier set-ups stay alive until all are timed, so removing one's
  // scratch directory never overlaps the next set-up.
  // Each sample repeats the set-up until it has taken kSetupSampleSeconds,
  // so a set-up of a few microseconds is timed as a batch, not against the
  // clock's and the cache's jitter.
  std::vector<double> setups;      // host seconds per set-up
  std::vector<double> ref_setups;  // reference seconds per set-up
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kSetups; ++i) {
    const double cal = calibrate();
    std::vector<std::unique_ptr<Workload>> made;
    const std::int64_t t0 = now_ns();
    std::int64_t t1 = t0;
    do {
      made.push_back(make(env));
      t1 = now_ns();
    } while ((t1 - t0) * 1e-9 < kSetupSampleSeconds);
    setups.push_back((t1 - t0) * 1e-9 / static_cast<double>(made.size()));
    ref_setups.push_back(setups.back() * kCalibrationRefSeconds / cal);
    w = std::move(made.back());
  }

  Checks checks;
  Phase ph;
  Phase traced;
  Totals totals;
  if (!a.trace) {
    ph = w->run(a.seconds, checks);
  } else {
    // Half untraced (the reference for the overhead), half traced.
    ph = w->run(a.seconds / 2, checks);
    set_tracing(true);
    traced = w->run(a.seconds / 2, checks);
    set_tracing(false);
    totals = collect();
  }
  const LayerCounts counts = w->counts();
  w->final_checks(checks);

  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0);
  std::printf("context: {\"commit\": \"%s\", \"source_digest\": \"%s\", "
              "\"compiler\": \"%s\", \"build_type\": \"%s\", \"nproc\": %ld",
              json_escape(a.commit).c_str(), json_escape(a.source_digest).c_str(),
              json_escape(compiler()).c_str(), PERFBENCH_BUILD_TYPE,
              ::sysconf(_SC_NPROCESSORS_ONLN));
  for (const auto& [k, v] : w->context()) {
    std::printf(", \"%s\": \"%s\"", json_escape(k).c_str(), json_escape(v).c_str());
  }
  std::printf("}\n");
  std::printf("setup: median of %d set-ups, host seconds:", kSetups);
  for (double s : setups) std::printf(" %.3g", s);
  std::printf("\n  reference seconds:");
  for (double s : ref_setups) std::printf(" %.3g", s);
  std::printf("\n");
  std::printf("%s: %llu items in %zu blocks, %.3f s host time, %zu item "
              "timings\n",
              a.workload.c_str(), static_cast<unsigned long long>(ph.items),
              ph.block_rates.size(), ph.seconds, ph.item_ms.size());
  std::printf("  block rates (items/s):");
  for (double r : ph.block_rates) std::printf(" %.4g", r);
  std::printf("\n  block rates (items per reference second):");
  for (double r : ph.block_ref_rates) std::printf(" %.4g", r);
  std::printf("\n  host: %.6g items/s, latency p50 %.6g ms, p90 %.6g ms\n",
              ph.throughput(), quantile(ph.item_ms, 0.5),
              quantile(ph.item_ms, 0.9));
  for (const Metric& m : ph.named) {
    std::printf("  %-24s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const double failed_frac =
      ratio(static_cast<double>(checks.failed), static_cast<double>(checks.attempted));
  std::printf("  %-24s %14.6g ratio (%llu failed of %llu attempted)\n",
              "failed_frac", failed_frac,
              static_cast<unsigned long long>(checks.failed),
              static_cast<unsigned long long>(checks.attempted));
  for (const std::string& m : checks.messages) {
    std::printf("  CHECK FAILED: %s\n", m.c_str());
  }
  std::printf("sim_digest: %016llx\n",
              static_cast<unsigned long long>(w->sim_digest()));

  std::vector<Metric> metrics;
  if (!a.trace) {
    metrics = {
        {"setup_s", quantile(ref_setups, 0.5), "s"},
        {"peak_rss_mib", peak_rss_mib, "MiB"},
        {"throughput_per_s", ph.ref_throughput(), "1/s"},
        {"latency_p50_ms", quantile(ph.item_ref_ms, 0.50), "ms"},
        {"latency_p90_ms", quantile(ph.item_ref_ms, 0.90), "ms"},
    };
  } else {
    metrics = layer_metrics(totals, counts, traced.seconds);
    std::printf("traced phase: %llu items in %.3f s\n",
                static_cast<unsigned long long>(traced.items), traced.seconds);
    for (const Metric& m : traced.named) {
      std::printf("  traced %-17s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("tracing overhead: %.2f%% time per item (untraced %.6g, "
                "traced %.6g items per reference second)\n",
                100.0 * (ratio(ph.ref_throughput(), traced.ref_throughput()) - 1.0),
                ph.ref_throughput(), traced.ref_throughput());
    std::printf("attribution: kernel time is Simulator::run time no running "
                "process's span covers; the estimator's work between its "
                "last observable point and a yield folds into kernel time, "
                "except a yield straight after a callback entry (the segment "
                "close), which stays with the callback\n");
    for (const Metric& m : layer_figures(totals, counts)) {
      std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    const std::string path = a.out_dir + "/spans-" + a.workload + "-seed" +
                             std::to_string(a.seed) + ".tsv";
    if (write_spans(path)) {
      std::printf("spans: %llu kept, %llu beyond the cap -> %s\n",
                  static_cast<unsigned long long>(totals.spans_kept),
                  static_cast<unsigned long long>(totals.spans_dropped),
                  path.c_str());
    }
  }
  for (const Metric& m : metrics) {
    std::printf("  %-28s %18.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += checks.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted);
  json += ", \"failed\": " + std::to_string(checks.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr,
               "perfbench: refusing to measure a build without optimisation "
               "or with asserts on (build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  try {
    perfbench::Args args;
    if (!perfbench::parse(argc, argv, args)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload vocoder_sw|fault_fleet|"
                   "hw_explore --seed N --seconds S --trace 0|1 [--out-dir D] "
                   "[--tmp-root D] [--commit C] [--source-digest H]\n");
      return 2;
    }
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
