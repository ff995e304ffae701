#ifndef UCQN_SERVER_SESSION_H_
#define UCQN_SERVER_SESSION_H_

#include <mutex>

#include "cost/stats_catalog.h"
#include "runtime/shared_cache.h"
#include "runtime/source_stack.h"
#include "schema/catalog.h"
#include "server/protocol.h"
#include "server/tenant.h"

namespace ucqn {

// Everything one query session needs from the daemon, by reference: the
// schema, the transport, and the process-wide state every session
// shares. The daemon owns all of it; sessions are stateless workers.
struct SessionEnv {
  const Catalog* catalog = nullptr;
  Source* backend = nullptr;
  // Process-wide cache store; may be null (each session then runs cold).
  SharedCacheStore* shared_cache = nullptr;
  // Observed-stats catalog feeding the adaptive cost model, and its lock:
  // StatsCatalog is not internally synchronized, and daemon sessions
  // write it concurrently.
  StatsCatalog* stats = nullptr;
  std::mutex* stats_mu = nullptr;
  // Template for each session's SourceStack: retry policy, parallelism,
  // pipeline depth. The session overrides shared_cache, forces metering
  // (per-request physical-call accounting), and folds the tenant quota
  // into the budget.
  RuntimeOptions runtime;
  // How many disjunct chains each session's operator-DAG execution may
  // overlap per round (ExecutionOptions::disjunct_concurrency); 1 =
  // sequential disjuncts.
  std::size_t disjunct_concurrency = 1;
  // Process-wide accumulator of executor-side operator-DAG counters
  // (disjuncts/morsels/anti-join build tuples), merged under `stats_mu`
  // after every session — the daemon's `stats` op reports it. May be
  // null; requires `stats_mu` when set.
  RuntimeStats* operator_totals = nullptr;
  // Price patterns/orderings from the observed stats instead of the
  // static heuristics. Each session plans against a point-in-time *copy*
  // of the catalog taken under stats_mu — the model reads it lock-free
  // during planning while other sessions keep observing.
  bool adaptive_cost_model = false;
  // With the adaptive model, let observed result fanouts stand in for the
  // fallback cardinality: the session's estimates gain each uncovered
  // relation's observed scan fanout (CardinalityEstimates::
  // ApplyObservedFanouts) and pattern pricing prefers per-pattern
  // observed fanouts (AdaptiveCostOptions::use_observed_fanouts). Off
  // reproduces the pre-feedback planning; ignored by the static model.
  bool fanout_feedback = true;
};

// Runs one already-admitted query request end to end: parse, schema
// check, ANSWER* against a fresh SourceStack view over the
// shared store, then feed the observed metrics back into env.stats.
// Never throws; all failure modes land in the response's status/error.
ServiceResponse RunQuerySession(const SessionEnv& env,
                                const ServiceRequest& request,
                                const TenantQuota& quota);

}  // namespace ucqn

#endif  // UCQN_SERVER_SESSION_H_
