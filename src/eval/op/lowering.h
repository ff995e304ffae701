#ifndef UCQN_EVAL_OP_LOWERING_H_
#define UCQN_EVAL_OP_LOWERING_H_

#include <string>
#include <vector>

#include "ast/query.h"
#include "cost/cost_model.h"
#include "eval/op/operator.h"
#include "schema/adornment.h"

namespace ucqn {

// The operator a literal runs as, given the variables bound before it.
// This is the single filter-placement decision point: it delegates to
// IsFilterLiteral (cost/cost_model.h), the same predicate ScoreLiteral
// uses to schedule filters first, so the planner's ordering, the explain
// dump, and the executed chain all classify a literal identically.
OperatorKind ClassifyLiteral(const Literal& literal,
                             const BoundVariables& bound);

// True when running `literal` after a non-empty `bound` is a Cartesian
// product: it lowers to an access scan, so it shares no bound variable.
// OptimizeLiteralOrder (eval/planner.h) avoids the forced ones; --explain
// marks every one with [cartesian].
bool IsCartesianStep(const Literal& literal, const BoundVariables& bound);

// The operator kinds of `q`'s body literals in order, tracking the
// bound-variable progression. Cheap (no catalog or model); this is what
// the DAG executor builds its chains from at execution time.
std::vector<OperatorKind> LowerOperatorKinds(const ConjunctiveQuery& q);

// One lowered operator with its static annotations for --explain: the
// pattern decision, the literal's scheduling score and the chosen
// candidate's cost under the planner's running live-binding estimate
// (the executor re-prices with actual frontier sizes at run time; for
// the static model the choice is context-free and therefore identical).
struct LoweredOperator {
  OperatorKind kind = OperatorKind::kAccessScan;
  Literal literal;
  // Every declared pattern of the literal's relation with usability and
  // cost; `decision.chosen` is empty when the literal cannot be called
  // at its position.
  PatternDecision decision;
  // The scheduling score the model gave this literal at its position.
  LiteralScore score;
  // The chosen candidate's cost (0 when no pattern is usable).
  double estimated_cost = 0.0;
  // The step is callable and expands the bindings but shares no variable
  // with those before it (IsCartesianStep).
  bool cartesian = false;
};

// A disjunct's compiled operator chain (Materialize sink implicit).
struct LoweredChain {
  // False when some literal has no usable pattern at its position. The
  // chain is still fully classified — execution stays lazy about this
  // (an unreachable literal never errors), so lowering must too.
  bool ok = false;
  std::vector<LoweredOperator> ops;

  // Root-first rendering, e.g.
  //   AccessScan R(x, z) via oo est_cost=250500.0
  //   -> HashAntiJoin S(z) via i est_cost=0.0
  //   -> Materialize
  std::string ToString() const;
};

// Compiles `q`'s body into its operator chain under `model`, annotating
// each operator with the pattern decision, score and cost at the
// planner's estimated context: the one static walk behind --explain
// (ExplainPlan renders its prefix up to the first uncallable literal).
// Purely static — no source calls.
LoweredChain LowerDisjunct(const ConjunctiveQuery& q, const Catalog& catalog,
                           const CostModel& model);

}  // namespace ucqn

#endif  // UCQN_EVAL_OP_LOWERING_H_
