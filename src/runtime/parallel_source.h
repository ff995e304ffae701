#ifndef UCQN_RUNTIME_PARALLEL_SOURCE_H_
#define UCQN_RUNTIME_PARALLEL_SOURCE_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "eval/source.h"
#include "runtime/clock.h"

namespace ucqn {

// Fans a wave out over a fixed-size worker pool, issuing one call per
// request against the wrapped (transport) source. Sits at the
// very bottom of a SourceStack, directly above the transport, so every
// decorator above it stays single-threaded: only the pool threads ever run
// concurrently, and only inside the transport — which must therefore be
// thread-safe (DatabaseSource and FaultInjectingSource are). A
// string-only transport is reached through Source's encoded-call
// adapter, on the worker's thread.
//
// Request i of a wave of size n is statically assigned to worker
// i mod min(workers, n); each worker processes its share sequentially.
// The static assignment (rather than a work-stealing queue) is what makes
// virtual time deterministic: under a SimulatedClock each worker's wave
// cost is the sum of its own requests' injected latencies, and the wave
// advances the clock by the maximum over workers (Clock::BeginWave /
// EndWave) — ceil(n / workers) x per-call latency for a uniform wave —
// independent of how the OS schedules the threads.
//
// With workers <= 1, or a single-request wave, everything runs inline on
// the caller's thread: bit-for-bit the historical sequential behavior,
// with no threads created and no wave bracketing.
class ParallelSource : public EncodedSource {
 public:
  struct ParallelStats {
    std::uint64_t batches = 0;           // waves seen
    std::uint64_t parallel_batches = 0;  // waves actually fanned out
    std::uint64_t requests = 0;          // total requests across waves
  };

  // Does not take ownership; `inner` (and `clock`, if given) must outlive
  // the source. `clock` should be the clock the transport sleeps on — it
  // is used only for wave bracketing, so that a SimulatedClock charges a
  // parallel wave max-over-workers instead of sum-over-calls.
  ParallelSource(Source* inner, std::size_t workers, Clock* clock = nullptr);
  ~ParallelSource() override;

  std::vector<EncodedFetchResult> FetchEncoded(
      const std::string& relation, const AccessPattern& pattern,
      const std::vector<EncodedTuple>& signatures, CallShape shape) override;

  std::size_t workers() const { return workers_; }
  const ParallelStats& parallel_stats() const { return stats_; }

 private:
  void StartThreadsLocked();
  void WorkerLoop(std::size_t worker);
  // Request i of a wave, as its own call against the transport.
  EncodedFetchResult CallOne(const std::string& relation,
                             const AccessPattern& pattern,
                             const EncodedTuple& signature);

  Source* inner_;
  std::size_t workers_;
  Clock* clock_;
  ParallelStats stats_;  // mutated by the (single) dispatching thread only

  // Pool protocol: the dispatcher publishes a wave under mu_ and bumps
  // generation_; workers wake, claim their static share, and the last one
  // to finish signals done_cv_. The dispatcher never overlaps waves, so
  // the wave fields are stable while any worker reads them.
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool shutdown_ = false;
  std::uint64_t generation_ = 0;
  std::size_t wave_workers_ = 0;
  std::size_t remaining_ = 0;
  const std::string* relation_ = nullptr;
  const AccessPattern* pattern_ = nullptr;
  const std::vector<EncodedTuple>* batch_ = nullptr;
  std::vector<EncodedFetchResult>* results_ = nullptr;
  std::vector<std::thread> threads_;
};

}  // namespace ucqn

#endif  // UCQN_RUNTIME_PARALLEL_SOURCE_H_
