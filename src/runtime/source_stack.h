#ifndef UCQN_RUNTIME_SOURCE_STACK_H_
#define UCQN_RUNTIME_SOURCE_STACK_H_

#include <cstdint>
#include <memory>
#include <string>

#include "eval/source.h"
#include "runtime/caching_source.h"
#include "runtime/clock.h"
#include "runtime/metered_source.h"
#include "runtime/parallel_source.h"
#include "runtime/retrying_source.h"

namespace ucqn {

// Configuration of the per-query source-access runtime, carried inside
// ExecutionOptions. Default-constructed options disable every layer, so
// plain Execute calls pay nothing.
struct RuntimeOptions {
  // Deduplicate identical calls (LRU keyed on relation/pattern/input
  // values; capacity 0 = unbounded).
  bool cache = false;
  std::size_t cache_capacity = 0;
  // Process-wide cache store (runtime/shared_cache.h). Not owned; when
  // set, the stack's CachingSource becomes a view over this store instead
  // of a private per-execution cache, so executions sharing the store
  // reuse (and single-flight) each other's calls. Implies `cache`.
  SharedCacheStore* shared_cache = nullptr;
  // Retry transient failures with backoff (see RetryPolicy).
  bool retry = false;
  RetryPolicy retry_policy;
  // Per-query call/deadline budget, enforced even when retry is off.
  CallBudget budget;
  // Per-relation call/tuple/latency metrics (see MeteredSource).
  bool metering = false;
  // Worker threads for overlapping the sub-calls of one batched wave
  // (see ParallelSource). 1 = sequential dispatch, no threads.
  std::size_t parallelism = 1;
  // How many *different literals'* waves the executor may keep in flight
  // at once (inter-literal pipelining, eval/dag_executor.h): bindings
  // that cleared literal i advance to literal i+1 and issue its probes
  // while literal i's remaining rows are still being fetched, up to this
  // many pipeline stages deep. 1 (and 0) = one wave at a time. Values > 1
  // change only transport scheduling, never the answers or their order.
  std::size_t pipeline_depth = 1;
  // Time source shared with whatever sits *under* the stack (e.g. a
  // latency-injecting test source). Not owned; may be null, in which case
  // the stack owns a SimulatedClock. A SourceStack constructor clock
  // argument, when non-null, takes precedence.
  Clock* clock = nullptr;

  bool Enabled() const {
    return cache || shared_cache != nullptr || retry || metering ||
           parallelism > 1 || pipeline_depth > 1 || budget.max_calls != 0 ||
           budget.deadline_micros != 0;
  }
};

// Snapshot of what a source stack did during one execution, reported via
// ExecutionResult/AnswerStarReport.
struct RuntimeStats {
  // Calls that reached the wrapped (transport) source, and the tuples they
  // returned. Unknown layers report 0.
  std::uint64_t source_calls = 0;
  std::uint64_t tuples_fetched = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  // Shared-store extras: misses served by another execution's in-flight
  // fetch, and TTL-expired entries dropped on the way to a miss.
  std::uint64_t cache_flight_waits = 0;
  std::uint64_t cache_stale_drops = 0;
  std::uint64_t retries = 0;
  std::uint64_t giveups = 0;
  std::uint64_t budget_refusals = 0;
  std::uint64_t backoff_micros = 0;
  // Waves the parallel dispatcher actually fanned out (>= 2 sub-calls),
  // and the total sub-calls it carried across all waves.
  std::uint64_t parallel_waves = 0;
  std::uint64_t batched_requests = 0;
  // Inter-literal pipelining (executor-side, filled in by the executor
  // when pipeline_depth > 1): DAG rounds run, and how many of them had
  // >= 2 waves genuinely in flight together.
  std::uint64_t pipeline_rounds = 0;
  std::uint64_t pipeline_overlaps = 0;
  // Operator-DAG executor counters (executor-side, filled in when the
  // default DAG path runs — eval/dag_executor.h): disjunct chains driven
  // to completion or failure, morsels staged through fetch operators,
  // and tuples inserted into anti-join build-side hash sets.
  std::uint64_t disjuncts_executed = 0;
  std::uint64_t morsels = 0;
  std::uint64_t antijoin_build_tuples = 0;

  double CacheHitRatio() const {
    const std::uint64_t lookups = cache_hits + cache_misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(cache_hits) /
                              static_cast<double>(lookups);
  }
  std::string ToString() const;
};

// Composes the configured decorators over a base source, bottom-up:
//
//   base -> ParallelSource -> MeteredSource -> RetryingSource
//        -> CachingSource (top)
//
// so the meter times every physical attempt (including retries), the
// retrier only sees cache misses, and cache hits cost nothing. The
// parallel dispatcher sits at the very bottom, directly above the
// transport: everything above it stays single-threaded (only the base
// source's Fetch runs on pool threads), and a batched wave keeps its
// cache/retry/metering semantics bit-identical to sequential dispatch.
// Layers whose options are off are simply not constructed; source() is
// then the base itself.
class SourceStack {
 public:
  // Does not take ownership of `base` or `clock`. With a null clock the
  // stack owns a SimulatedClock — deterministic virtual time, no real
  // sleeping.
  SourceStack(Source* base, const RuntimeOptions& options,
              Clock* clock = nullptr);

  // The top of the stack; issue all Fetches through this.
  Source* source() { return top_; }
  Clock* clock() { return clock_; }

  // Individual layers, nullptr when disabled.
  CachingSource* cache() { return cache_.get(); }
  RetryingSource* retrier() { return retry_.get(); }
  MeteredSource* meter() { return meter_.get(); }
  ParallelSource* parallel() { return parallel_.get(); }

  RuntimeStats stats() const;

 private:
  std::unique_ptr<SimulatedClock> owned_clock_;
  Clock* clock_;
  std::unique_ptr<ParallelSource> parallel_;
  std::unique_ptr<MeteredSource> meter_;
  std::unique_ptr<RetryingSource> retry_;
  std::unique_ptr<CachingSource> cache_;
  Source* top_;
};

}  // namespace ucqn

#endif  // UCQN_RUNTIME_SOURCE_STACK_H_
