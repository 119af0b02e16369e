#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "kernel/hash.hpp"
#include "kernel/simulator.hpp"
#include "kernel/time.hpp"

namespace minisc {

/// Exponential-backoff schedule for retry_with_backoff. The delay before
/// attempt k+1 is initial * factor^k, capped at max_delay; simulated time is
/// spent via minisc::wait, so the retries are visible to the estimation hook
/// as ordinary timed-wait nodes.
///
/// Jitter is deterministic: with jitter > 0 each delay is scaled by a factor
/// drawn uniformly from [1 - jitter, 1 + jitter] out of an Rng seeded with
/// `jitter_seed` — the caller supplies the seed (typically the campaign seed
/// mixed with a retry-site id), so the same seed always yields the same
/// backoff timeline and retries never perturb reproducibility.
struct BackoffPolicy {
  std::size_t max_attempts = 8;
  Time initial = Time::us(1);
  double factor = 2.0;
  Time max_delay = Time::ms(1);
  double jitter = 0.0;  ///< half-width of the scale interval, in [0, 1)
  std::uint64_t jitter_seed = 0;
};

/// Retries `attempt` (a callable returning true on success) up to
/// policy.max_attempts times, waiting the backoff delay between attempts.
/// Returns true as soon as an attempt succeeds, false when the budget is
/// exhausted. Must be called from process context. This is the canonical
/// recovery idiom for transient faults: pair with Fifo::read_for or
/// nb_read/nb_write to ride out outage windows.
template <typename F>
bool retry_with_backoff(F&& attempt, const BackoffPolicy& policy = {}) {
  Time delay = policy.initial;
  Rng jitter(policy.jitter_seed);
  for (std::size_t k = 0; k < policy.max_attempts; ++k) {
    if (attempt()) return true;
    if (k + 1 == policy.max_attempts) break;  // no wait after the last try
    Time waited = delay;
    if (policy.jitter > 0.0) {
      const double scale =
          1.0 - policy.jitter + 2.0 * policy.jitter * jitter.uniform();
      waited = Time::from_ns(delay.to_ns_d() * scale);
    }
    wait(waited);
    const double next_ns = delay.to_ns_d() * policy.factor;
    delay = Time::from_ns(next_ns);
    if (delay > policy.max_delay) delay = policy.max_delay;
  }
  return false;
}

}  // namespace minisc
