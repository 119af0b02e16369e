#include "trace/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <memory>
#include <numeric>
#include <ostream>
#include <set>
#include <span>
#include <sstream>

#include "core/pool.hpp"
#include "kernel/error.hpp"
#include "kernel/simulator.hpp"
#include "trace/journal.hpp"

namespace sctrace {

double mean_ci95(const Summary& s) {
  if (s.count < 2) return 0.0;
  return 1.96 * s.stddev / std::sqrt(static_cast<double>(s.count));
}

bool run_violates(const CampaignRunResult& r) {
  return !r.completed || r.deadline_missed > 0;
}

double CampaignReport::ess_fraction() const {
  const std::size_t completed = completed_runs();
  if (completed == 0) return 0.0;
  return effective_sample_size / static_cast<double>(completed);
}

bool CampaignReport::low_ess() const {
  return importance_sampled && completed_runs() > 0 && ess_fraction() < 0.1;
}

std::string CampaignReport::ess_warning() const {
  if (!low_ess()) return {};
  std::ostringstream os;
  os << "ESS " << effective_sample_size << " is " << ess_fraction() * 100.0
     << "% of " << completed_runs()
     << " completed runs (below the 10% floor) — the importance bias "
        "explores a different region than the nominal model; re-tune it "
        "(adaptive pilot: sctrace::tune_bias_factor)";
  return os.str();
}

namespace {

/// One seed through the run function, under the per-run wall-clock budget,
/// with transient/permanent retry classification. Never throws SimError:
/// the outcome (including a still-failing final attempt) becomes the record.
CampaignRunResult run_with_retry(const FaultCampaign::RunFn& fn,
                                 std::uint64_t seed,
                                 const CampaignOptions& opts) {
  const std::size_t max_attempts = std::max<std::size_t>(1, opts.max_attempts);
  for (std::uint32_t attempt = 1;; ++attempt) {
    try {
      CampaignRunResult r;
      {
        // Any Simulator the run function builds on this thread enforces the
        // budget through its amortised wall-clock check; a hung seed throws
        // kWallClockBudget here instead of stalling the campaign.
        minisc::RunBudgetScope budget(opts.run_wall_clock_ms);
        r = fn(seed);
      }
      r.seed = seed;
      r.attempts = attempt;
      return r;
    } catch (const minisc::SimError& e) {
      if (e.kind() == minisc::SimError::Kind::kIoError) {
        // Infrastructure failure, not a simulation outcome: recording a full
        // disk as a failed *run* would bias the campaign statistics against
        // seeds that happened to land on a sick host. Propagate instead —
        // fleet workers quarantine the shard, plain campaigns abort loudly.
        throw;
      }
      if (e.transient() && attempt < max_attempts) continue;
      CampaignRunResult r;
      r.seed = seed;
      r.completed = false;
      r.error = e.what();
      r.attempts = attempt;
      return r;
    }
  }
}

/// Opens the campaign's journal. Fresh start: truncate and write the header.
/// Resume against an existing non-empty journal: verify the header carries
/// this campaign's identity (identity_mismatch), replay every intact record bit-exactly into its result
/// slot, drop the replayed indices from `todo` (the ascending indices still
/// owed), and come back positioned to append. `decision` receives the
/// journal's sequential-verdict record, when present (the caller decides
/// what it legalises).
std::unique_ptr<JournalWriter> open_journal(
    std::uint64_t base_seed, std::size_t n, const CampaignOptions& opts,
    std::vector<CampaignRunResult>& results, std::size_t offset,
    std::vector<std::size_t>& todo,
    std::optional<JournalDecision>& decision) {
  JournalHeader header;
  header.base_seed = base_seed;
  header.runs = n;
  header.scenario_digest = opts.scenario_digest;
  header.tag = opts.journal_tag;

  if (opts.resume) {
    std::ifstream probe(opts.journal_path, std::ios::binary);
    // A missing or empty journal (a crash before the header landed) starts
    // fresh; anything with bytes in it must parse and match.
    const bool nonempty = probe && probe.peek() != std::ifstream::traits_type::eof();
    probe.close();
    if (nonempty) {
      JournalContents contents = read_journal(opts.journal_path);
      const std::string diff = identity_mismatch(contents.header, header);
      if (!diff.empty()) {
        throw minisc::SimError(
            minisc::SimError::Kind::kBadConfig,
            "campaign journal '" + opts.journal_path +
                "' was written by a different campaign (" + diff +
                ") — refusing to mix their runs");
      }
      std::vector<bool> done(n, false);
      for (JournalRecord& rec : contents.records) {
        results[offset + rec.index] = std::move(rec.result);
        done[rec.index] = true;
      }
      std::erase_if(todo, [&done](std::size_t i) { return done[i]; });
      decision = contents.decision;
      return std::make_unique<JournalWriter>(opts.journal_path,
                                             contents.valid_bytes);
    }
  }
  return std::make_unique<JournalWriter>(opts.journal_path, header);
}

}  // namespace

void FaultCampaign::run(std::uint64_t base_seed, std::size_t n,
                        const CampaignOptions& opts) {
  if (!fn_) {
    throw minisc::SimError(
        minisc::SimError::Kind::kBadConfig,
        "FaultCampaign::run on a merge-constructed campaign: it carries "
        "recorded results only, there is no run function to execute");
  }
  const bool smc_on = opts.smc.engaged();
  // Pre-sized slot array: run i (seed base_seed + i) writes slot offset + i
  // and nothing else, so the assembled results — and therefore report() and
  // write_csv() — are identical whether the slots fill on one thread or
  // eight, in any interleaving. Journal replay drops recorded results into
  // the same slots, which is why a resumed campaign aggregates to the same
  // bytes as an uninterrupted one.
  const std::size_t offset = results_.size();
  results_.resize(offset + n);

  // The ascending run indices still owed: all of them, or the ones a resumed
  // journal is missing.
  std::vector<std::size_t> todo(n);
  std::iota(todo.begin(), todo.end(), std::size_t{0});
  std::unique_ptr<JournalWriter> journal;
  std::optional<JournalDecision> decision;
  if (!opts.journal_path.empty()) {
    journal = open_journal(base_seed, n, opts, results_, offset, todo,
                           decision);
  }

  if (decision) {
    // The journal already carries a sequential verdict: the campaign it
    // records chose to stop at `executed` runs. Resuming it re-runs nothing
    // — the decision replays like the run records do, and the output is
    // byte-identical to the run that wrote it.
    if (!smc_on) {
      throw minisc::SimError(
          minisc::SimError::Kind::kBadConfig,
          "campaign journal '" + opts.journal_path +
              "' carries a sequential decision record, but this campaign "
              "runs without an smc spec — an early-stopped journal can only "
              "resume under sequential model checking (or be merged)");
    }
    if (!same_smc_spec(opts.smc, decision->spec)) {
      throw minisc::SimError(
          minisc::SimError::Kind::kBadConfig,
          "campaign journal '" + opts.journal_path +
              "' was decided under a different smc spec (threshold/delta/"
              "alpha/beta/method/min_samples/window/use_weights differ) — "
              "refusing to replay a verdict for a different hypothesis");
    }
    if (decision->executed > n) {
      throw minisc::SimError(
          minisc::SimError::Kind::kJournalCorrupt,
          "campaign journal '" + opts.journal_path +
              "': decision record covers " +
              std::to_string(decision->executed) +
              " executed runs, but the campaign has only " +
              std::to_string(n));
    }
    if (!todo.empty() && todo.front() < decision->executed) {
      throw minisc::SimError(
          minisc::SimError::Kind::kJournalCorrupt,
          "campaign journal '" + opts.journal_path +
              "': decision record covers " +
              std::to_string(decision->executed) +
              " executed runs but run " + std::to_string(todo.front()) +
              " is missing — the decision should never have been durable "
              "before its runs");
    }
    results_.resize(offset + decision->executed);
    smc_spec_ = opts.smc;
    smc_verdict_ = decision->verdict;
    return;
  }

  auto run_one = [&](std::size_t i) {
    CampaignRunResult r = run_with_retry(fn_, base_seed + i, opts);
    // Journal before publishing the slot: a record is durable (or at worst a
    // tolerated torn tail) by the time anything can observe the result. The
    // pre_append hook gates the append — a fleet worker probes its lease
    // here so a stolen unit aborts before the record lands on disk.
    if (journal) {
      if (opts.pre_append) opts.pre_append(i);
      journal->append(i, r);
    }
    results_[offset + i] = std::move(r);
  };

  // Seeds are issued in windows: the whole campaign at once, or smc.window
  // runs at a time under sequential model checking, whose tester then eats
  // the completed slots *in seed order*. The window size — not the thread
  // count — decides which seeds execute, and the feed order is the seed
  // order, so the stopping point (and every byte derived from it) is
  // identical for any thread count.
  std::optional<SequentialTester> tester;
  if (smc_on) tester.emplace(opts.smc);
  const std::size_t window = smc_on ? opts.smc.window : n;
  std::size_t executed = 0;  // window-aligned count of issued runs
  std::size_t fed = 0;       // slots consumed by the tester, in seed order
  auto owed = todo.cbegin();
  while (executed < n && !(tester && tester->decided())) {
    const std::size_t end = std::min(n, executed + window);
    const auto stop = std::lower_bound(owed, todo.cend(), end);
    scperf::parallel_for(opts.threads, std::span(owed, stop), run_one);
    owed = stop;
    executed = end;
    while (tester && fed < executed && !tester->decided()) {
      const CampaignRunResult& r = results_[offset + fed++];
      tester->feed(run_violates(r), std::exp(r.log_weight));
    }
  }

  if (!tester) {
    if (journal) journal->sync();
    return;
  }
  // The window that crossed the boundary ran to completion (its runs are
  // real data and stay in the results/CSV); everything after it was never
  // issued, so the slot array shrinks to what actually executed.
  results_.resize(offset + executed);
  smc_spec_ = opts.smc;
  smc_verdict_ = tester->verdict();
  if (journal) {
    // Always record the decision — an undecided budget exhaustion included:
    // its presence is what marks the journal final (and resumable as a
    // no-op) rather than interrupted.
    JournalDecision d;
    d.spec = opts.smc;
    d.verdict = *smc_verdict_;
    d.executed = executed;
    journal->append_decision(d);
  }
}

CampaignReport FaultCampaign::report() const {
  CampaignReport rep;
  rep.runs = results_.size();
  std::vector<double> makespans;
  std::vector<double> recoveries;
  // Importance-sampling accumulators over completed runs: the weighted
  // per-run miss fraction w_i * m_i, and the raw weights for ESS.
  std::vector<double> weighted_miss;
  std::vector<double> weights;
  double sum_w = 0.0;
  bool any_weighted = false;
  for (const CampaignRunResult& r : results_) {
    rep.total_attempts += r.attempts;
    if (r.attempts > 1) ++rep.retried_runs;
    if (!r.completed) {
      ++rep.failed_runs;
      continue;
    }
    rep.deadline_total += r.deadline_total;
    rep.deadline_missed += r.deadline_missed;
    makespans.push_back(r.makespan.to_ns_d());
    recoveries.insert(recoveries.end(), r.recovery_latencies_ns.begin(),
                      r.recovery_latencies_ns.end());
    rep.mean_energy_pj += r.energy_pj;
    rep.mean_fault_energy_pj += r.fault_energy_pj;
    const double w = std::exp(r.log_weight);
    if (r.log_weight != 0.0) any_weighted = true;
    const double m =
        r.deadline_total > 0
            ? static_cast<double>(r.deadline_missed) /
                  static_cast<double>(r.deadline_total)
            : 0.0;
    weighted_miss.push_back(w * m);
    weights.push_back(w);
    sum_w += w;
  }
  const std::size_t completed = rep.runs - rep.failed_runs;
  if (completed > 0) {
    rep.mean_energy_pj /= static_cast<double>(completed);
    rep.mean_fault_energy_pj /= static_cast<double>(completed);
  }
  if (rep.deadline_total > 0) {
    const double p = static_cast<double>(rep.deadline_missed) /
                     static_cast<double>(rep.deadline_total);
    rep.miss_rate = p;
    if (rep.deadline_missed == 0 || rep.deadline_missed == rep.deadline_total) {
      // At 0/N or N/N the Wald interval collapses to width zero, which
      // overstates certainty badly in exactly the rare-event regime a fault
      // campaign probes. Use the rule-of-three bound 3/N instead.
      rep.miss_rate_ci95 = 3.0 / static_cast<double>(rep.deadline_total);
    } else {
      rep.miss_rate_ci95 =
          1.96 * std::sqrt(p * (1.0 - p) /
                           static_cast<double>(rep.deadline_total));
    }
  }
  rep.makespan_ns = summarize(makespans);
  rep.makespan_ci95 = mean_ci95(rep.makespan_ns);
  rep.recovery_ns = summarize(recoveries);
  rep.recovery_ci95 = mean_ci95(rep.recovery_ns);
  rep.importance_sampled = any_weighted;
  if (any_weighted && completed > 0) {
    const Summary wm = summarize(weighted_miss);
    rep.weighted_miss_rate = wm.mean;
    rep.weighted_miss_rate_ci95 = mean_ci95(wm);
    rep.mean_weight = sum_w / static_cast<double>(completed);
    rep.effective_sample_size = kish_ess(weights);
  }
  if (smc_verdict_) {
    rep.smc_engaged = true;
    rep.smc_spec = smc_spec_;
    rep.smc = *smc_verdict_;
  }
  return rep;
}

void CampaignReport::print(std::ostream& os) const {
  os << "fault campaign: " << runs << " runs (" << failed_runs
     << " failed)\n";
  if (retried_runs > 0) {
    // Only printed when something retried, so retry-free campaigns keep
    // emitting the historical bytes.
    os << "  retries:   " << retried_runs << " runs took >1 attempt ("
       << total_attempts << " attempts across " << runs << " runs)\n";
  }
  os << "  deadlines: " << deadline_missed << "/" << deadline_total
     << " missed, miss rate " << miss_rate * 100.0 << "% +/- "
     << miss_rate_ci95 * 100.0 << "%\n";
  if (smc_engaged) {
    os << "  sequential: " << to_string(smc_spec.method) << " verdict "
       << to_string(smc.outcome) << " after " << smc.samples_used
       << " samples (H: P(violation) <= " << smc_spec.threshold << " +/- "
       << smc_spec.delta << " at alpha=" << smc_spec.alpha
       << " beta=" << smc_spec.beta << "; log-ratio " << smc.log_ratio
       << " vs bound " << smc.bound << ", estimate " << smc.estimate
       << ", ess " << smc.ess << ")\n";
  }
  if (importance_sampled) {
    os << "  importance-sampled nominal miss rate: "
       << weighted_miss_rate * 100.0 << "% +/- "
       << weighted_miss_rate_ci95 * 100.0 << "%  (ESS "
       << effective_sample_size << " of " << runs - failed_runs
       << ", mean weight " << mean_weight << ")\n";
    if (low_ess()) {
      // A badly matched bias must be loud: a tiny ESS hides inside an
      // apparently tight (but meaningless) confidence interval. The text is
      // single-sourced in ess_warning() — the per-cell sweep warning formats
      // through the same function, so the two surfaces cannot disagree
      // about the achieved fraction.
      os << "  WARNING: " << ess_warning() << "\n";
    }
  }
  if (makespan_ns.count > 0) {
    os << "  makespan:  mean " << makespan_ns.mean << " ns +/- "
       << makespan_ci95 << " (min " << makespan_ns.min << ", max "
       << makespan_ns.max << ", n=" << makespan_ns.count << ")\n";
  }
  if (recovery_ns.count > 0) {
    os << "  recovery:  mean " << recovery_ns.mean << " ns +/- "
       << recovery_ci95 << " (min " << recovery_ns.min << ", max "
       << recovery_ns.max << ", n=" << recovery_ns.count << ")\n";
  }
  if (mean_energy_pj > 0.0 || mean_fault_energy_pj > 0.0) {
    os << "  energy:    mean " << mean_energy_pj << " pJ/run, of which "
       << mean_fault_energy_pj << " pJ fault overhead\n";
  }
}

void FaultCampaign::write_csv(std::ostream& os) const {
  if (smc_verdict_) {
    // The verdict travels with the per-run data as a comment row, so a CSV
    // with fewer rows than the nominal budget is self-explaining (and the
    // byte-identity gates can compare it like any other output).
    os << "# smc=" << to_string(smc_spec_.method) << " outcome="
       << to_string(smc_verdict_->outcome) << " samples_used="
       << smc_verdict_->samples_used << " executed=" << results_.size()
       << " threshold=" << smc_spec_.threshold << " delta=" << smc_spec_.delta
       << " alpha=" << smc_spec_.alpha << " beta=" << smc_spec_.beta
       << " log_ratio=" << smc_verdict_->log_ratio << " bound="
       << smc_verdict_->bound << " estimate=" << smc_verdict_->estimate
       << " ess=" << smc_verdict_->ess << '\n';
  }
  os << "seed,completed,makespan_ns,deadline_total,deadline_missed,"
        "faults_injected,recovery_samples,mean_recovery_ns,log_weight,"
        "weight,energy_pj,fault_energy_pj,value_hash,attempts\n";
  for (const CampaignRunResult& r : results_) {
    const Summary rec = summarize(r.recovery_latencies_ns);
    os << r.seed << ',' << (r.completed ? 1 : 0) << ','
       << r.makespan.to_ns_d() << ',' << r.deadline_total << ','
       << r.deadline_missed << ',' << r.faults_injected << ','
       << rec.count << ',' << rec.mean << ',' << r.log_weight << ','
       << std::exp(r.log_weight) << ',' << r.energy_pj << ','
       << r.fault_energy_pj << ',' << r.value_hash << ',' << r.attempts
       << '\n';
  }
}

void CampaignSweep::run(std::uint64_t base_seed, std::size_t n,
                        const CampaignOptions& opts) {
  if (!factory_) {
    throw minisc::SimError(
        minisc::SimError::Kind::kBadConfig,
        "CampaignSweep::run on a merge-constructed sweep: it carries "
        "recorded cells only, there is no factory to execute");
  }
  if (!opts.journal_path.empty()) {
    throw minisc::SimError(
        minisc::SimError::Kind::kBadConfig,
        "CampaignSweep::run journals nothing (journal_path '" +
            opts.journal_path +
            "'): a durable sweep is a sweep fleet — run it with "
            "sctrace::run_sharded_sweep, one journal per cell, and merge it "
            "with merge_sweep_dir");
  }
  cells_.clear();
  cells_.reserve(mappings_.size() * scenarios_.size());
  for (const std::string& m : mappings_) {
    for (const std::string& s : scenarios_) {
      FaultCampaign campaign(factory_(m, s));
      campaign.run(base_seed, n, opts);
      cells_.push_back(Cell{m, s, campaign.report()});
    }
  }
}

const CampaignReport* CampaignSweep::cell(const std::string& mapping,
                                          const std::string& scenario) const {
  for (const Cell& c : cells_) {
    if (c.mapping == mapping && c.scenario == scenario) return &c.report;
  }
  return nullptr;
}

void CampaignSweep::print(std::ostream& os) const {
  // Miss-rate grid, mappings down, scenarios across. Column width is sized
  // for "100.00%" plus breathing room. When any cell ran under sequential
  // model checking the numbers carry verdict markers — accept ✓, reject ✗,
  // undecided ~ — so the pruning is visible at a glance; smc-free sweeps
  // keep the historical grid bytes exactly.
  bool any_smc = false;
  for (const Cell& c : cells_) any_smc = any_smc || c.report.smc_engaged;
  std::size_t name_w = 7;  // "mapping"
  for (const std::string& m : mappings_) name_w = std::max(name_w, m.size());
  os << "deadline miss rate (%), " << mappings_.size() << " mappings x "
     << scenarios_.size() << " scenarios\n";
  os << std::left << std::setw(static_cast<int>(name_w) + 2) << "mapping";
  for (const std::string& s : scenarios_) {
    os << std::right << std::setw(std::max<int>(10, static_cast<int>(s.size()) + 2))
       << s;
  }
  os << '\n';
  const std::streamsize old_prec = os.precision();
  os << std::fixed << std::setprecision(2);
  for (const std::string& m : mappings_) {
    os << std::left << std::setw(static_cast<int>(name_w) + 2) << m;
    for (const std::string& s : scenarios_) {
      const CampaignReport* rep = cell(m, s);
      const int w = std::max<int>(10, static_cast<int>(s.size()) + 2);
      if (rep == nullptr) {
        os << std::right << std::setw(w) << "-";
      } else if (!any_smc) {
        os << std::right << std::setw(w) << rep->miss_rate * 100.0;
      } else {
        // Verdict markers are multi-byte UTF-8 but single-column glyphs;
        // setw counts bytes, so the padding is done by hand in display
        // columns (number + 2: a space and the marker).
        std::ostringstream num;
        num << std::fixed << std::setprecision(2) << rep->miss_rate * 100.0;
        const char* mark = "  ";
        if (rep->smc_engaged) {
          switch (rep->smc.outcome) {
            case SmcOutcome::kAccept:
              mark = " ✓";
              break;
            case SmcOutcome::kReject:
              mark = " ✗";
              break;
            case SmcOutcome::kUndecided:
              mark = " ~";
              break;
          }
        }
        for (int pad = w - static_cast<int>(num.str().size()) - 2; pad > 0;
             --pad) {
          os << ' ';
        }
        os << num.str() << mark;
      }
    }
    os << '\n';
  }
  os << std::defaultfloat << std::setprecision(static_cast<int>(old_prec));
  // Degenerate-weight cells: the single-campaign Report::print warning,
  // surfaced at the grid level so a sharded sweep cannot hide a collapsed
  // importance bias inside one quiet cell. Weight-free sweeps print nothing
  // here, keeping the historical grid bytes. The text is single-sourced in
  // CampaignReport::ess_warning (shared with Report::print), and the seen-
  // set deduplicates a cell that appears twice in cells_ (merge paths) —
  // one warning per (mapping, scenario), never a double report.
  std::set<std::pair<std::string, std::string>> warned;
  for (const Cell& c : cells_) {
    if (!c.report.low_ess()) continue;
    if (!warned.emplace(c.mapping, c.scenario).second) continue;
    os << "WARNING: cell " << c.mapping << "/" << c.scenario << ": "
       << c.report.ess_warning() << "\n";
  }
}

void CampaignSweep::write_csv(std::ostream& os) const {
  // The smc columns appear only when some cell actually ran under a
  // sequential spec, so smc-free sweeps keep their historical CSV bytes.
  bool any_smc = false;
  for (const Cell& c : cells_) any_smc = any_smc || c.report.smc_engaged;
  os << "mapping,scenario,runs,failed_runs,deadline_total,deadline_missed,"
        "miss_rate,miss_rate_ci95,mean_makespan_ns,mean_energy_pj,"
        "mean_fault_energy_pj";
  if (any_smc) {
    os << ",smc_outcome,smc_samples_used";
  }
  os << '\n';
  for (const Cell& c : cells_) {
    os << c.mapping << ',' << c.scenario << ',' << c.report.runs << ','
       << c.report.failed_runs << ',' << c.report.deadline_total << ','
       << c.report.deadline_missed << ',' << c.report.miss_rate << ','
       << c.report.miss_rate_ci95 << ',' << c.report.makespan_ns.mean << ','
       << c.report.mean_energy_pj << ',' << c.report.mean_fault_energy_pj;
    if (any_smc) {
      if (c.report.smc_engaged) {
        os << ',' << to_string(c.report.smc.outcome) << ','
           << c.report.smc.samples_used;
      } else {
        os << ",-,0";
      }
    }
    os << '\n';
  }
}

}  // namespace sctrace
