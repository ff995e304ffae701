#ifndef UCQN_EVAL_ANSWER_STAR_H_
#define UCQN_EVAL_ANSWER_STAR_H_

#include <optional>
#include <set>
#include <string>

#include "ast/query.h"
#include "eval/executor.h"
#include "eval/source.h"
#include "feasibility/plan_star.h"

namespace ucqn {

// The ANSWER* bracket (Fig. 4): runtime under-/over-estimates of the
// exact answer plus the completeness information reported to the user.
// AnswerStar and a maintained StandingQuery (eval/delta.h) both report
// it, filled by the one AssembleBracket below, so a maintained bracket is
// byte-identical to a fresh run's.
struct AnswerBracket {
  // False only when a source call failed (transient error past its
  // retries, or an exhausted call/deadline budget) or a standing query
  // could not be kept current; `error` says why. The estimate sets are
  // empty in that case. With infallible sources (the in-memory ones) this
  // is always true: PLAN*'s plans are executable by construction.
  bool ok = false;
  std::string error;
  // ansᵤ = ANSWER(Qᵘ, D): every tuple here is a guaranteed answer.
  std::set<Tuple> under;
  // ansₒ = ANSWER(Qᵒ, D): every actual answer appears here, possibly with
  // null in columns the overestimate could not compute.
  std::set<Tuple> over;
  // Δ = ansₒ \ ansᵤ: tuples that *may* be part of the answer.
  std::set<Tuple> delta;
  // Δ = ∅: the answer is complete even if the query is infeasible
  // (Example 5 — the unanswerable part turned out to be irrelevant).
  bool complete = false;
  // True if some Δ tuple carries null (Example 7's "unknown value" rows).
  bool delta_has_nulls = false;
  // |ansᵤ| / |ansₒ|, reported only when Δ is non-empty and null-free — the
  // "answer is at least X complete" message of Fig. 4.
  std::optional<double> completeness_lower_bound;

  // The user-facing messages of Fig. 4, verbatim in spirit.
  std::string Summary() const;
};

// Fills `out` from the executions of Qᵘ and Qᵒ: the failure of the first
// plan that failed, otherwise both answer sets with Δ and the
// completeness verdict derived from them.
void AssembleBracket(ExecutionResult under, ExecutionResult over,
                     AnswerBracket* out);

// Output of algorithm ANSWER*: the bracket plus how it was computed.
struct AnswerStarReport : AnswerBracket {
  // The compiled plans, for diagnostics.
  PlanStarResult plans;
  // What the executor and, when ExecutionOptions::runtime enabled any of
  // its layers, the source-access runtime did across the run.
  RuntimeStats runtime;
};

// What ANSWER* executes, each satisfiable PLAN* disjunct reordered once
// under a cost model: *exact* ones (PLAN* put them into Qᵘ and Qᵒ) are
// Qᵘ, *padded* ones (null-padded, Qᵒ only) the rest of Qᵒ, `over` all of
// Qᵒ. `ucqnc --explain` prints `exact`, then `padded`.
struct AnswerStarPlan {
  UnionQuery exact;
  UnionQuery padded;
  UnionQuery over;
};
AnswerStarPlan SplitForExecution(const PlanStarResult& plans,
                                 const Catalog& catalog,
                                 const CostModel* model);

// Algorithm ANSWER*: compiles Q with PLAN*, evaluates the plans against
// the sources, and reports the underestimate together with completeness
// information. One ExecuteInTurn call (one runtime stack, configured via
// `options.runtime`) runs Qᵘ, giving ansᵤ, then the padded disjuncts;
// ansₒ = ansᵤ ∪ their answers. Behind a cache (`options.runtime` or
// Source::Caches) the second drive is all of Qᵒ, so transport calls, TTL
// expiries and the adaptive model's hit rates stay those of two separate
// plan executions (the bench/e2e trace mirror checks them). A failure in
// the first drive is "underestimate plan failed", in the second
// "overestimate plan failed"; PLAN*'s plans are executable, so only the
// source failure channel can cause one.
AnswerStarReport AnswerStar(const UnionQuery& q, const Catalog& catalog,
                            Source* source,
                            const ExecutionOptions& options = {});

}  // namespace ucqn

#endif  // UCQN_EVAL_ANSWER_STAR_H_
