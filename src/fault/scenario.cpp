#include "fault/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace scfault {

namespace {

// config_digest folds every field through mix_seed, one 64-bit word at a
// time; doubles contribute their bit pattern, strings their fnv1a hash.
void fold(std::uint64_t& h, std::uint64_t v) { h = minisc::mix_seed(h, v); }

void fold_d(std::uint64_t& h, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  fold(h, bits);
}

void fold_s(std::uint64_t& h, const std::string& s) {
  fold(h, minisc::fnv1a(s));
}

void fold_t(std::uint64_t& h, minisc::Time t) { fold(h, t.to_ps()); }

}  // namespace

std::uint64_t config_digest(const ScenarioConfig& config) {
  std::uint64_t h = minisc::fnv1a("scfault::ScenarioConfig/v1");
  fold_t(h, config.horizon);
  fold(h, config.pulses.size());
  for (const PulseSpec& p : config.pulses) {
    fold_s(h, p.resource);
    fold(h, p.count);
    fold_d(h, p.min_extra_cycles);
    fold_d(h, p.max_extra_cycles);
    fold_d(h, p.occur_p);
  }
  fold(h, config.outages.size());
  for (const OutageSpec& o : config.outages) {
    fold_s(h, o.resource);
    fold(h, o.count);
    fold_t(h, o.min_length);
    fold_t(h, o.max_length);
    fold_d(h, o.occur_p);
  }
  fold(h, config.storms.size());
  for (const StormSpec& s : config.storms) {
    fold_s(h, s.resource);
    fold(h, s.count);
    fold_d(h, s.continue_p);
    fold(h, s.max_cluster);
    fold_t(h, s.window);
    fold_t(h, s.min_length);
    fold_t(h, s.max_length);
  }
  fold(h, config.channel_faults.size());
  for (const ChannelFaultSpec& c : config.channel_faults) {
    fold_s(h, c.channel);
    fold_d(h, c.drop_p);
    fold_d(h, c.dup_p);
    fold_d(h, c.delay_p);
    fold_t(h, c.min_delay);
    fold_t(h, c.max_delay);
    fold(h, c.burst.has_value() ? 1 : 0);
    if (c.burst.has_value()) {
      fold_d(h, c.burst->p_enter);
      fold_d(h, c.burst->p_exit);
      fold_d(h, c.burst->bad_drop_p);
      fold_d(h, c.burst->bad_dup_p);
      fold_d(h, c.burst->bad_delay_p);
    }
  }
  fold(h, config.crashes.size());
  for (const CrashSpec& c : config.crashes) {
    fold_s(h, c.process);
    fold_t(h, c.at);
    fold_t(h, c.restart_after);
  }
  return h;
}

FaultScenario::FaultScenario(ScenarioConfig config, std::uint64_t seed)
    : config_(std::move(config)), seed_(seed) {
  // Each fault class draws from its own sub-stream so that, e.g., adding a
  // pulse spec never shifts the outage timeline of the same seed.
  minisc::Rng pulse_rng(minisc::mix_seed(seed_, minisc::fnv1a("pulses")));
  for (const PulseSpec& spec : config_.pulses) {
    minisc::Rng rng(
        minisc::mix_seed(pulse_rng.next(), minisc::fnv1a(spec.resource)));
    for (std::size_t i = 0; i < spec.count; ++i) {
      // The occurrence gate draws ONLY when occur_p < 1: an unconditioned
      // spec makes exactly the draws it always made, so legacy timelines
      // (and the seed-stability hashes pinned on them) stay bit-exact. A
      // skipped candidate also skips its time/magnitude draws.
      if (spec.occur_p < 1.0 && rng.uniform() >= spec.occur_p) continue;
      Pulse p;
      p.resource = spec.resource;
      p.at = rng.time_in(minisc::Time::zero(), config_.horizon);
      p.extra_cycles =
          rng.uniform(spec.min_extra_cycles, spec.max_extra_cycles);
      pulses_.push_back(std::move(p));
    }
  }
  std::stable_sort(pulses_.begin(), pulses_.end(),
                   [](const Pulse& a, const Pulse& b) { return a.at < b.at; });

  minisc::Rng outage_rng(minisc::mix_seed(seed_, minisc::fnv1a("outages")));
  for (const OutageSpec& spec : config_.outages) {
    minisc::Rng rng(
        minisc::mix_seed(outage_rng.next(), minisc::fnv1a(spec.resource)));
    for (std::size_t i = 0; i < spec.count; ++i) {
      if (spec.occur_p < 1.0 && rng.uniform() >= spec.occur_p) continue;
      Outage o;
      o.resource = spec.resource;
      o.start = rng.time_in(minisc::Time::zero(), config_.horizon);
      o.length = rng.time_in(spec.min_length, spec.max_length);
      outages_.push_back(std::move(o));
    }
  }
  // Storms draw from their own sub-stream, so adding a storm spec never
  // moves the independent outage timeline (and vice versa). Cluster sizes
  // use repeated Bernoulli draws instead of an inverse-CDF so the timeline
  // needs no transcendental math — platform-stable like everything else.
  minisc::Rng storm_rng(minisc::mix_seed(seed_, minisc::fnv1a("storms")));
  for (const StormSpec& spec : config_.storms) {
    minisc::Rng rng(
        minisc::mix_seed(storm_rng.next(), minisc::fnv1a(spec.resource)));
    for (std::size_t i = 0; i < spec.count; ++i) {
      const minisc::Time centre =
          rng.time_in(minisc::Time::zero(), config_.horizon);
      // One Bernoulli(continue_p) draw per extra member until a draw fails;
      // a cluster capped at max_cluster ends without a draw.
      std::size_t members = 1;
      while (members < spec.max_cluster && rng.uniform() < spec.continue_p) {
        ++members;
      }
      for (std::size_t m = 0; m < members; ++m) {
        Outage o;
        o.resource = spec.resource;
        o.start = (m == 0) ? centre
                           : centre + rng.time_in(minisc::Time::zero(),
                                                  spec.window);
        o.length = rng.time_in(spec.min_length, spec.max_length);
        outages_.push_back(std::move(o));
      }
    }
  }
  std::stable_sort(
      outages_.begin(), outages_.end(),
      [](const Outage& a, const Outage& b) { return a.start < b.start; });

  crashes_ = config_.crashes;
  std::stable_sort(
      crashes_.begin(), crashes_.end(),
      [](const CrashSpec& a, const CrashSpec& b) { return a.at < b.at; });
}

const ChannelFaultSpec* FaultScenario::channel_spec(
    const std::string& name) const {
  const ChannelFaultSpec* wildcard = nullptr;
  for (const ChannelFaultSpec& spec : config_.channel_faults) {
    if (spec.channel == name) return &spec;
    if (spec.channel == "*") wildcard = &spec;
  }
  return wildcard;
}

namespace {

/// count * log(p_nom / p_bias), with the degenerate cases pinned down:
/// an event that never occurred contributes nothing regardless of its
/// probabilities; equal probabilities contribute nothing regardless of the
/// count (identical specs must weigh exactly 1, even on 0/0 events); an
/// observed event that is impossible under the nominal model but possible
/// under the biased one zeroes the whole weight (-infinity in log space).
double lr_term(std::uint64_t count, double p_nom, double p_bias) {
  if (count == 0 || p_nom == p_bias) return 0.0;
  if (p_nom <= 0.0) return -std::numeric_limits<double>::infinity();
  // p_bias <= 0 with count > 0 cannot happen for draws made under `biased`;
  // guard anyway so a mismatched spec pair fails loudly (NaN), not silently.
  if (p_bias <= 0.0) return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(count) * std::log(p_nom / p_bias);
}

}  // namespace

double channel_log_lr(const ChannelFaultSpec& nominal,
                      const ChannelFaultSpec& biased,
                      const ChannelFaultCounts& counts) {
  double log_lr = 0.0;
  for (std::size_t s = 0; s < 2; ++s) {
    const bool bad = (s == ChannelFaultCounts::kBad);
    const auto pn = emission(nominal, bad);
    const auto pb = emission(biased, bad);
    log_lr += lr_term(counts.dropped[s], pn[0], pb[0]);
    log_lr += lr_term(counts.duplicated[s], pn[1], pb[1]);
    log_lr += lr_term(counts.delayed[s], pn[2], pb[2]);
    log_lr += lr_term(counts.delivered[s], pn[3], pb[3]);
  }
  // Transition factor of the Gilbert–Elliott chain: one draw per write,
  // made in the state the write was emitted from.
  const double n_enter = nominal.burst ? nominal.burst->p_enter : 0.0;
  const double b_enter = biased.burst ? biased.burst->p_enter : 0.0;
  const double n_exit = nominal.burst ? nominal.burst->p_exit : 1.0;
  const double b_exit = biased.burst ? biased.burst->p_exit : 1.0;
  const std::uint64_t good = counts.draws[ChannelFaultCounts::kGood];
  const std::uint64_t bad = counts.draws[ChannelFaultCounts::kBad];
  if (n_enter != b_enter || n_exit != b_exit || counts.to_bad != 0 ||
      bad != 0) {
    log_lr += lr_term(counts.to_bad, n_enter, b_enter);
    log_lr += lr_term(good - counts.to_bad, 1.0 - n_enter, 1.0 - b_enter);
    log_lr += lr_term(counts.to_good, n_exit, b_exit);
    log_lr += lr_term(bad - counts.to_good, 1.0 - n_exit, 1.0 - b_exit);
  }
  return log_lr;
}

std::vector<minisc::Time> FaultScenario::fault_times() const {
  std::vector<minisc::Time> times;
  times.reserve(pulses_.size() + outages_.size() + crashes_.size());
  for (const Pulse& p : pulses_) times.push_back(p.at);
  for (const Outage& o : outages_) times.push_back(o.start);
  for (const CrashSpec& c : crashes_) times.push_back(c.at);
  std::sort(times.begin(), times.end());
  return times;
}

}  // namespace scfault
