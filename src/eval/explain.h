#ifndef UCQN_EVAL_EXPLAIN_H_
#define UCQN_EVAL_EXPLAIN_H_

#include <string>
#include <vector>

#include "ast/query.h"
#include "cost/cost_model.h"
#include "eval/answer_star.h"
#include "eval/source.h"
#include "schema/catalog.h"

namespace ucqn {

// Example 7's reading of a Δ tuple: the binding β produced by the
// answerable part gives rise to a *partially instantiated query* — e.g.
// for Δ ∋ (a, null),
//
//   Q1ᵒ(a, y) :- R(a, b), not S(b), B(a, y).
//
// "there may be one or more y values such that (a, y) is in the answer,
// but {y | B(a,y)} is unknowable under B's access pattern". This module
// reconstructs those readings for every Δ tuple.
struct DeltaExplanation {
  // The Δ tuple being explained (may contain null).
  Tuple tuple;
  // Which disjunct of the original query produced it.
  std::size_t disjunct_index = 0;
  // The original disjunct with the answerable part's binding β applied:
  // answerable literals fully ground, unanswerable literals mentioning
  // only β's values and the still-unknown variables.
  ConjunctiveQuery partially_instantiated;

  std::string ToString() const;
};

// Re-derives, for each tuple of `report.delta`, every witnessing binding
// of the answerable parts and renders the partially instantiated
// disjuncts. Re-executes the answerable parts against `source` (cheap —
// they are the same calls ANSWER* already made; wrap the source in a
// CachingSource to make them free). Fails, with `error` set and no
// explanations, when a re-executed source call fails — e.g. because the
// call budget ANSWER* left is too small.
struct DeltaExplanations {
  bool ok = false;
  std::string error;
  std::vector<DeltaExplanation> explanations;
};
DeltaExplanations ExplainDelta(const UnionQuery& q, const Catalog& catalog,
                               Source* source, const AnswerStarReport& report);

// One literal's pattern decision as the executor would make it: the
// chosen adornment, every rejected candidate, and the cost the model
// assigned each — the observable trace of the cost layer (src/cost/).
struct LiteralPlanStep {
  Literal literal;
  // All declared patterns of the literal's relation with usability, cost,
  // and the winner flagged. `decision.chosen` is empty when the literal
  // cannot be called at its position (the plan is not executable there).
  PatternDecision decision;
  // The scheduling score the model gave this literal at its position.
  LiteralScore score;
  // The step expands the bindings but shares no variable with those
  // before it (IsCartesianStep, eval/op/lowering.h).
  bool cartesian = false;
};

// The per-literal decision trace of executing `q`'s body left to right
// under `model` — what `ucqnc --explain` prints.
struct PlanExplanation {
  // False when some literal has no usable pattern at its position; the
  // steps up to and including the failing literal are still reported.
  bool ok = false;
  std::string model;  // the cost model's name()
  std::vector<LiteralPlanStep> steps;

  // e.g. "  Lookup(x, v): io cost=35200.0 (chosen), oo cost=250500.0", with
  // " [cartesian]" after a Cartesian step.
  std::string ToString() const;
};

// Walks `q`'s body in order, recording every pattern decision `model`
// makes (with the same live-binding estimates the planner uses). Purely
// static — no source calls are issued.
PlanExplanation ExplainPlan(const ConjunctiveQuery& q, const Catalog& catalog,
                            const CostModel& model);

}  // namespace ucqn

#endif  // UCQN_EVAL_EXPLAIN_H_
