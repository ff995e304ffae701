#ifndef UCQN_RUNTIME_FAULT_INJECTION_H_
#define UCQN_RUNTIME_FAULT_INJECTION_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "eval/source.h"
#include "runtime/clock.h"

namespace ucqn {

// What a FaultInjectingSource does to the calls passing through it. All
// randomness is seeded, so a given plan replays identically — tests and
// benches get deterministic flakiness.
struct FaultPlan {
  // Each call independently fails with this probability (after the
  // deterministic fail_first_* rules below have been satisfied).
  double failure_probability = 0.0;
  std::uint64_t seed = 42;
  // The first N calls overall fail — models a source that is down and
  // comes back. Note this is the only arrival-order rule: under parallel
  // waves the *count* of failures stays exactly N, but which concurrent
  // calls absorb them depends on scheduling. Use fail_first_per_key for
  // interleaving-independent behavior.
  std::uint64_t fail_first_calls = 0;
  // The first N attempts of each distinct call signature fail, then that
  // signature succeeds forever — the canonical retry-path test: a bare
  // source never sees a success for a fresh call, a retrying source does.
  std::uint64_t fail_first_per_key = 0;
  // Injected per-call service latency, slept on the clock (virtual time
  // under SimulatedClock): fixed part + seeded U[0, jitter].
  std::uint64_t latency_micros = 0;
  std::uint64_t latency_jitter_micros = 0;
  // Per-relation override of the fixed latency part (jitter still
  // applies): models a fleet where one service is slower than the rest —
  // the scenario the adaptive cost model exists for.
  std::map<std::string, std::uint64_t> relation_latency_micros;
  // Per-relation override of failure_probability: a fleet where one or
  // two services are flaky while the rest are solid (the workload
  // generator's "flaky services"). Same content-seeded determinism.
  std::map<std::string, double> relation_failure_probability;
  // Correlated latency spikes: while the clock sits inside the first
  // `spike_duration_micros` of each `spike_period_micros` window, every
  // call — whatever its relation — pays `spike_extra_micros` on top. All
  // relations spike together because the window is keyed on the shared
  // clock, modeling a congested upstream network rather than independent
  // per-service noise. Disabled while spike_period_micros == 0, and inert
  // without a clock (there is no time axis to correlate on).
  std::uint64_t spike_period_micros = 0;
  std::uint64_t spike_duration_micros = 0;
  std::uint64_t spike_extra_micros = 0;
};

// Decorator that makes a reliable source flaky and slow on demand — the
// test double for the paper's remote web services. Failures surface as
// FetchStatus::kTransientError; latency is charged to the clock so
// MeteredSource (sharing the same clock) observes it.
//
// It answers in ids: each request of a wave is slept and judged in
// order, and the requests that survive reach the inner source as one
// wave of the same shape.
//
// Safe for concurrent use: ParallelSource fans batched waves out over
// the transport, so FetchEncoded may run on several pool threads at
// once. All per-call randomness (latency jitter, probabilistic failure)
// is seeded from the plan seed plus the *request's content* — its call
// signature and per-signature occurrence number — never from global
// arrival order, so a wave injects the same faults however its threads
// interleave. Occurrences are counted only for the requests whose
// outcome depends on them (fail_first_per_key, jitter, a failure
// probability), and a request's generator is seeded only when it draws.
class FaultInjectingSource : public EncodedSource {
 public:
  struct FaultStats {
    std::uint64_t calls = 0;
    std::uint64_t injected_failures = 0;
    std::uint64_t injected_latency_micros = 0;
  };

  // Does not take ownership; `inner` (and `clock`, if given) must outlive
  // the adapter. With a null clock, latency is recorded in the stats but
  // not slept anywhere.
  FaultInjectingSource(Source* inner, FaultPlan plan, Clock* clock = nullptr)
      : inner_(inner), plan_(plan), clock_(clock) {}

  std::vector<EncodedFetchResult> FetchEncoded(
      const std::string& relation, const AccessPattern& pattern,
      const std::vector<EncodedTuple>& signatures, CallShape shape) override;

  const FaultStats& fault_stats() const { return stats_; }

 private:
  Source* inner_;
  FaultPlan plan_;
  Clock* clock_;
  std::mutex mu_;
  FaultStats stats_;
  // Calls so far per relation^pattern, then per call signature.
  std::unordered_map<
      std::string,
      std::unordered_map<EncodedTuple, std::uint64_t, EncodedTupleHash>>
      per_key_calls_;
};

}  // namespace ucqn

#endif  // UCQN_RUNTIME_FAULT_INJECTION_H_
