#include "eval/explain.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "eval/executor.h"
#include "eval/op/lowering.h"
#include "schema/adornment.h"

namespace ucqn {

std::string DeltaExplanation::ToString() const {
  return TupleToString(tuple) + " from disjunct " +
         std::to_string(disjunct_index) + ": " +
         partially_instantiated.ToString();
}

DeltaExplanations ExplainDelta(const UnionQuery& q, const Catalog& catalog,
                               Source* source, const AnswerStarReport& report) {
  (void)q;  // the per-disjunct detail lives in report.plans
  DeltaExplanations result;
  std::set<std::string> seen;
  for (std::size_t i = 0; i < report.plans.disjuncts.size(); ++i) {
    const DisjunctPlan& plan = report.plans.disjuncts[i];
    // Only dismissed disjuncts can contribute Δ tuples: fully answerable
    // ones feed the underestimate too, so their tuples never sit in Δ.
    if (!plan.over.has_value() || plan.unanswerable.empty()) continue;
    // Re-derive the answerable part's witnesses. The answerable part is
    // executable by construction, so only a source call can fail; empty
    // bodies yield the single trivial binding (the bare "benefit of the
    // doubt" row).
    BindingsResult witnesses =
        ExecuteForBindings(*plan.answerable, catalog, source);
    if (!witnesses.ok) {
      result.error = std::move(witnesses.error);
      result.explanations.clear();
      return result;
    }
    for (const Substitution& binding : witnesses.bindings) {
      Tuple tuple = binding.Apply(plan.over->head_terms());
      bool ground = true;
      for (const Term& t : tuple) ground = ground && t.IsGround();
      if (!ground || report.delta.count(tuple) == 0) continue;
      DeltaExplanation explanation;
      explanation.tuple = std::move(tuple);
      explanation.disjunct_index = i;
      explanation.partially_instantiated =
          plan.original.Substitute(binding);
      if (seen.insert(explanation.ToString()).second) {
        result.explanations.push_back(std::move(explanation));
      }
    }
  }
  result.ok = true;
  return result;
}

std::string PlanExplanation::ToString() const {
  std::string out = "cost model: " + model + "\n";
  for (const LiteralPlanStep& step : steps) {
    out += "  " + step.literal.ToString() + " -> " + step.decision.ToString();
    if (!step.score.filter && step.decision.chosen.has_value()) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.1f", step.score.cost);
      out += " [score=" + std::string(buf) + "]";
    }
    if (step.score.filter) out += " [filter]";
    if (step.cartesian) out += " [cartesian]";
    out += "\n";
  }
  if (!ok) out += "  plan is not executable at the last literal\n";
  return out;
}

PlanExplanation ExplainPlan(const ConjunctiveQuery& q, const Catalog& catalog,
                            const CostModel& model) {
  PlanExplanation explanation;
  explanation.model = model.name();
  BoundVariables bound;
  PlanContext context;  // same running estimate the planner keeps
  for (const Literal& literal : q.body()) {
    LiteralPlanStep step;
    step.literal = literal;
    std::optional<AccessPattern> pattern = ChoosePattern(
        catalog, literal, bound, model, context, &step.decision);
    step.score = model.ScoreLiteral(catalog, literal, bound, context);
    step.cartesian = pattern.has_value() && IsCartesianStep(literal, bound);
    const bool executable = pattern.has_value();
    explanation.steps.push_back(std::move(step));
    if (!executable) return explanation;  // ok stays false
    if (!explanation.steps.back().score.filter) {
      context.live_bindings = std::max(
          1.0, context.live_bindings * model.ExpectedFanout(literal, bound));
    }
    if (literal.positive()) BindVariables(literal, &bound);
  }
  explanation.ok = true;
  return explanation;
}

}  // namespace ucqn
