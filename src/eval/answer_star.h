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
  // What the source-access runtime did across both plan executions, when
  // ExecutionOptions::runtime enabled any of its layers.
  RuntimeStats runtime;
};

// Algorithm ANSWER*: compiles Q with PLAN*, evaluates both plans against
// the sources, and reports the underestimate together with completeness
// information. The plans produced by PLAN* are always executable, so on
// well-formed catalogs this can fail (report.ok == false) only through the
// source failure channel. A runtime stack configured via
// `options.runtime` is shared across both plan executions — exactly the
// duplicate-call shape (Qᵘ's calls are a subset of Qᵒ's) where caching
// pays off; with `options.runtime.parallelism` > 1 the shared stack's
// parallel dispatcher also overlaps each literal's batched wave of calls
// across both plans; see bench_runtime.
AnswerStarReport AnswerStar(const UnionQuery& q, const Catalog& catalog,
                            Source* source,
                            const ExecutionOptions& options = {});

}  // namespace ucqn

#endif  // UCQN_EVAL_ANSWER_STAR_H_
