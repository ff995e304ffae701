#ifndef UCQN_EVAL_PLANNER_H_
#define UCQN_EVAL_PLANNER_H_

#include <optional>
#include <string>

#include "ast/query.h"
#include "cost/cost_model.h"
#include "cost/estimates.h"
#include "eval/database.h"
#include "schema/catalog.h"

namespace ucqn {

struct PlannerOptions {
  // The fraction of a relation's tuples expected to survive each bound
  // argument position (a crude uniform-selectivity model — enough to rank
  // candidate literals, which is all the greedy planner needs).
  double bound_arg_selectivity = 0.2;
  // The cardinality assumed for a relation the estimates do not cover.
  // This is the documented fallback everywhere an unknown relation is
  // priced: EstimateFanout treats it exactly like a relation whose
  // estimate is this value (see cost/estimates.h).
  double fallback_cardinality = kDefaultFallbackCardinality;
};

// Greedy cost-aware literal ordering for an orderable CQ¬ (the executor
// runs plans left to right, so literal order is the entire join order):
// at every step, among the literals executable next, the cost model's
// ScoreLiteral picks the winner. Under the default StaticCostModel that
// means
//   1. negative literals and fully-bound positives (pure filters,
//      fanout <= 1), then
//   2. the positive literal with the smallest estimated result size
//      (cardinality * selectivity^bound_args);
// an AdaptiveCostModel additionally prices each candidate's observed p50
// call latency, so a slow service is scheduled as late as its fanout
// allows. Algorithm ANSWERABLE instead picks literals in body order —
// sound, but it can put a huge scan in front of a selective probe;
// bench_planner quantifies the difference in source calls and tuples
// moved.
//
// One rule ranks ahead of the score: the connectivity rule. A candidate
// after which every remaining positive literal can still run without a
// Cartesian product (repeatedly add any executable remaining literal
// that shares a variable with the bound set; all must be reached) beats
// one after which they cannot. On the walk C0(v0, v1), C1(v1, v2),
// C2(v2, v3) with C1 probe-only, starting at C2 strands C0 as a
// Cartesian product; the rule starts at C0. The greedy pick is tested
// first and alternatives only when it fails, so the order changes only
// where the greedy one would hold a forced Cartesian product:
//   - a body that cannot avoid one (e.g. Q(x, y) :- R(x), S(y)) keeps
//     the greedy order exactly — the rule switches off for good at the
//     first step where no candidate passes;
//   - voluntary cross products stay: a Cartesian candidate the model
//     prefers passes whenever the rest can still join afterwards.
// The check runs on 64-bit variable masks; a body with more than 64
// distinct variables (or literals) is ordered by the plain greedy rule.
//
// Returns nullopt when `q` is not orderable (no executable ordering
// exists) — callers fall back to PLAN*'s approximations. Unsatisfiable
// queries are ordered like any other (they execute to the empty answer);
// dropping them outright is PLAN*'s job.
std::optional<ConjunctiveQuery> OptimizeLiteralOrder(
    const ConjunctiveQuery& q, const Catalog& catalog, const CostModel& model);

// Applies OptimizeLiteralOrder to every disjunct; nullopt if any disjunct
// is not orderable.
std::optional<UnionQuery> OptimizeLiteralOrder(const UnionQuery& q,
                                               const Catalog& catalog,
                                               const CostModel& model);

// Legacy entry points: build a StaticCostModel from `estimates` and
// `options` and delegate — the pre-cost-layer greedy planner's scores,
// plus the connectivity rule.
std::optional<ConjunctiveQuery> OptimizeLiteralOrder(
    const ConjunctiveQuery& q, const Catalog& catalog,
    const CardinalityEstimates& estimates, const PlannerOptions& options = {});
std::optional<UnionQuery> OptimizeLiteralOrder(
    const UnionQuery& q, const Catalog& catalog,
    const CardinalityEstimates& estimates, const PlannerOptions& options = {});

}  // namespace ucqn

#endif  // UCQN_EVAL_PLANNER_H_
