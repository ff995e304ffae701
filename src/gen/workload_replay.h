#ifndef UCQN_GEN_WORKLOAD_REPLAY_H_
#define UCQN_GEN_WORKLOAD_REPLAY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gen/workload.h"
#include "runtime/clock.h"
#include "server/daemon.h"
#include "server/protocol.h"

namespace ucqn {

// Replays a workload's request sequence through a QueryDaemon, applying
// the workload's [deltas] stream as `delta` ops just before the request
// indices they are pinned to, and reports ok/error/shed/quota counts,
// physical calls, windowed cache-hit curves and an answer digest. One
// loop serves both transports. In-process, the daemon runs behind a
// fault-injecting source on a SimulatedClock, which adds simulated-
// latency percentiles; bench/bench_workload.cc drives this form. Over
// the wire, tools/ucqn_workload.cc --via-daemon passes a submit function
// that exchanges protocol lines with a child `ucqnd --stdio`.
struct WorkloadReplayOptions {
  // The daemon under replay, configured as ucqnd's daemon flags configure
  // it (tools/flag_parse.h). Replays default to the adaptive cost model
  // with fanout feedback and 3 retry attempts. The in-process replay
  // supplies the clock and database fields itself.
  QueryDaemon::Options daemon = [] {
    QueryDaemon::Options defaults;
    defaults.adaptive_cost_model = true;
    defaults.runtime.retry = true;  // RetryPolicy's 3 attempts
    return defaults;
  }();
  // Client threads submitting concurrently (static round-robin split).
  // 1 = serial, the only mode that reports per-request sim percentiles.
  int threads = 1;
  // Windows the request stream is cut into for the cache-hit curve.
  int windows = 10;
  // Overrides spec.replay.requests when non-zero.
  std::uint64_t max_requests = 0;
  // Run the backend behind the workload's fault plan (latency, flakiness,
  // spikes). Off = raw in-memory backend, zero simulated latency. The
  // in-process replay only: ucqnd's backend has no fault layer.
  bool inject_faults = true;
};

// One slice of the request stream (by request index, replay order).
struct ReplayWindow {
  std::uint64_t requests = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t physical_calls = 0;
  // hits / (hits + misses); 0 when the window saw no cache traffic.
  double hit_rate = 0.0;
};

struct WorkloadReplayReport {
  bool ok = false;
  std::string error;

  std::uint64_t requests = 0;
  std::uint64_t ok_count = 0;
  std::uint64_t error_count = 0;
  std::uint64_t shed_count = 0;
  std::uint64_t quota_count = 0;

  // Delta batches (one per (request index, relation) group of the
  // workload's delta stream) submitted ahead of their request, and how
  // many of them the daemon refused or failed.
  std::uint64_t deltas_applied = 0;
  std::uint64_t delta_error_count = 0;

  // Simulated time the whole replay charged to the shared clock; 0 on
  // the wire, where the daemon's clock is not the replay's to read (as
  // are the percentiles below).
  std::uint64_t sim_wall_micros = 0;
  // Wall-clock seconds the replay actually took (all threads).
  double real_seconds = 0.0;
  // requests / real_seconds.
  double throughput_per_second = 0.0;

  std::uint64_t physical_calls = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  // Per-request simulated latency percentiles; only meaningful when the
  // replay ran with threads == 1 (concurrent submits interleave on the
  // shared clock, so a per-request delta has no owner).
  std::uint64_t p50_micros = 0;
  std::uint64_t p95_micros = 0;
  std::uint64_t p99_micros = 0;

  std::vector<ReplayWindow> windows;

  // Order-independent digest of every ok response's answer sets (XOR of
  // per-request FNV hashes over (request index, under, over)): two
  // replays answered byte-identically iff their digests match.
  std::uint64_t answers_hash = 0;

  // {"requests": N, "ok": N, ..., "windows": [{...}, ...]}
  std::string ToJson() const;
};

// How one replayed request reaches the daemon. Called from
// options.threads threads at once when that is above 1.
using ReplaySubmit = std::function<ServiceResponse(const ServiceRequest&)>;

// The replay loop itself. `sim_clock` is the simulated clock the daemon
// behind `submit` charges, read around each serial request for the
// latency percentiles and at the end for sim_wall_micros; null leaves
// all four 0.
WorkloadReplayReport ReplayWorkload(const WorkloadSpec& spec,
                                    const WorkloadReplayOptions& options,
                                    const ReplaySubmit& submit,
                                    Clock* sim_clock = nullptr);

// In-process: constructs a QueryDaemon from options.daemon over the
// workload's schema and a private copy of its instance (behind a
// FaultInjectingSource when options.inject_faults), all on one
// SimulatedClock, and replays through QueryDaemon::Submit.
WorkloadReplayReport ReplayWorkload(const WorkloadSpec& spec,
                                    const WorkloadReplayOptions& options);

}  // namespace ucqn

#endif  // UCQN_GEN_WORKLOAD_REPLAY_H_
