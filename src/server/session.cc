#include "server/session.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "ast/parser.h"
#include "cost/cost_model.h"
#include "cost/estimates.h"
#include "eval/answer_star.h"

namespace ucqn {

namespace {

// The smaller of two caps where 0 means "uncapped".
std::uint64_t MinCap(std::uint64_t a, std::uint64_t b) {
  if (a == 0) return b;
  if (b == 0) return a;
  return std::min(a, b);
}

}  // namespace

ServiceResponse RunQuerySession(const SessionEnv& env,
                                const ServiceRequest& request,
                                const TenantQuota& quota) {
  ServiceResponse response;
  response.id = request.id;
  response.tenant = request.tenant;
  response.include_answers = request.include_answers;

  std::string error;
  std::optional<UnionQuery> query = ParseUnionQuery(request.query, &error);
  if (!query) {
    response.status = ServiceResponse::Status::kError;
    response.error = "query error: " + error;
    return response;
  }
  if (!env.catalog->CoversQuery(*query, &error)) {
    response.status = ServiceResponse::Status::kError;
    response.error = "schema mismatch: " + error;
    return response;
  }

  // The per-session stack: a fresh view (budgets, meter, hit/miss ledger)
  // over the shared store. Metering is forced on so physical calls are
  // attributable to this request, and the tenant's caps ride the
  // CallBudget the retry layer already enforces.
  RuntimeOptions runtime = env.runtime;
  runtime.shared_cache = env.shared_cache;
  runtime.metering = true;
  runtime.budget.max_calls =
      MinCap(request.max_calls, quota.max_calls_per_query);
  runtime.budget.deadline_micros =
      MinCap(runtime.budget.deadline_micros, quota.deadline_micros);

  // Adaptive planning prices candidates from a point-in-time copy of the
  // shared stats catalog: the copy is taken under the lock, the model
  // reads it lock-free, and concurrent sessions keep observing into the
  // original — the same snapshot discipline as `ucqnc --stats-in`.
  StatsCatalog stats_snapshot;
  if (env.adaptive_cost_model && env.stats != nullptr) {
    std::lock_guard<std::mutex> lock(*env.stats_mu);
    stats_snapshot = *env.stats;
  }
  AdaptiveCostOptions adaptive_options;
  adaptive_options.shared_cache = env.shared_cache;
  adaptive_options.use_observed_fanouts = env.fanout_feedback;
  // Catalog `@N` annotations seed the estimates; with fanout feedback on,
  // relations nobody annotated get the cardinality their observed full
  // scans measured instead of the 1000-tuple fallback — the planner
  // learns real selectivities from the workload (docs/WORKLOADS.md).
  CardinalityEstimates estimates = CardinalityEstimates::FromCatalog(*env.catalog);
  if (env.adaptive_cost_model && env.fanout_feedback) {
    estimates.ApplyObservedFanouts(stats_snapshot);
  }
  AdaptiveCostModel adaptive_model(&stats_snapshot, std::move(estimates),
                                   adaptive_options);

  ExecutionOptions exec;
  if (env.adaptive_cost_model) exec.cost_model = &adaptive_model;
  exec.runtime.pipeline_depth = env.runtime.pipeline_depth;
  exec.disjunct_concurrency = env.disjunct_concurrency;

  SourceStack stack(env.backend, runtime);
  exec.runtime.clock = stack.clock();
  AnswerStarReport report =
      AnswerStar(*query, *env.catalog, stack.source(), exec);

  const RuntimeStats stats = stack.stats();
  response.physical_calls =
      stack.meter() != nullptr ? stack.meter()->totals().calls : 0;
  response.cache_hits = stats.cache_hits;
  response.cache_misses = stats.cache_misses;

  // Feed this session's observations to every later session's adaptive
  // model (and the stats snapshot file).
  if (env.stats != nullptr && stack.meter() != nullptr) {
    std::lock_guard<std::mutex> lock(*env.stats_mu);
    env.stats->Observe(*stack.meter());
  }
  // Merge this session's executor-side operator-DAG work into the
  // process-wide totals, race-free under the same lock concurrent
  // sessions' Observes take.
  if (env.operator_totals != nullptr && env.stats_mu != nullptr) {
    std::lock_guard<std::mutex> lock(*env.stats_mu);
    env.operator_totals->disjuncts_executed +=
        report.runtime.disjuncts_executed;
    env.operator_totals->morsels += report.runtime.morsels;
    env.operator_totals->antijoin_build_tuples +=
        report.runtime.antijoin_build_tuples;
  }

  if (!report.ok) {
    response.status = ServiceResponse::Status::kError;
    response.error = report.error;
    return response;
  }
  response.status = ServiceResponse::Status::kOk;
  response.under = std::move(report.under);
  response.over = std::move(report.over);
  response.complete = report.complete;
  return response;
}

}  // namespace ucqn
