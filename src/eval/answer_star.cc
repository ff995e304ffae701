#include "eval/answer_star.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "eval/planner.h"

namespace ucqn {

AnswerStarPlan SplitForExecution(const PlanStarResult& plans,
                                 const Catalog& catalog,
                                 const CostModel* model) {
  AnswerStarPlan plan;
  for (const DisjunctPlan& disjunct : plans.disjuncts) {
    if (!disjunct.over.has_value()) continue;  // unsatisfiable
    // A disjunct the model cannot order keeps PLAN*'s order, which is
    // executable by construction.
    std::optional<ConjunctiveQuery> ordered;
    if (model != nullptr) {
      ordered = OptimizeLiteralOrder(*disjunct.over, catalog, *model);
    }
    const ConjunctiveQuery& run = ordered.has_value() ? *ordered
                                                      : *disjunct.over;
    (disjunct.under.has_value() ? plan.exact : plan.padded).AddDisjunct(run);
    plan.over.AddDisjunct(run);
  }
  return plan;
}

AnswerStarReport AnswerStar(const UnionQuery& q, const Catalog& catalog,
                            Source* source, const ExecutionOptions& options) {
  AnswerStarReport report;
  report.plans = PlanStar(q, catalog);
  const AnswerStarPlan plan =
      SplitForExecution(report.plans, catalog, options.cost_model);
  const bool cached = options.runtime.cache || source->Caches() ||
                      options.runtime.shared_cache != nullptr;
  InTurnResult run = ExecuteInTurn(plan.exact, cached ? plan.over : plan.padded,
                                   catalog, source, options);
  report.runtime = run.runtime;
  // Qᵒ is Qᵘ plus the padded disjuncts, so ansₒ = ansᵤ ∪ their answers
  // (a no-op when the second drive ran all of Qᵒ).
  if (run.second.ok) {
    run.second.tuples.insert(run.first.tuples.begin(),
                             run.first.tuples.end());
  }
  AssembleBracket(std::move(run.first), std::move(run.second), &report);
  return report;
}

void AssembleBracket(ExecutionResult under, ExecutionResult over,
                     AnswerBracket* out) {
  if (!under.ok || !over.ok) {
    out->error = !under.ok ? "underestimate plan failed: " + under.error
                           : "overestimate plan failed: " + over.error;
    return;
  }
  out->ok = true;
  out->under = std::move(under.tuples);
  out->over = std::move(over.tuples);
  std::set_difference(out->over.begin(), out->over.end(), out->under.begin(),
                      out->under.end(),
                      std::inserter(out->delta, out->delta.begin()));
  out->complete = out->delta.empty();
  for (const Tuple& tuple : out->delta) {
    for (const Term& t : tuple) {
      if (t.IsNull()) {
        out->delta_has_nulls = true;
        break;
      }
    }
    if (out->delta_has_nulls) break;
  }
  if (!out->complete && !out->delta_has_nulls && !out->over.empty()) {
    out->completeness_lower_bound = static_cast<double>(out->under.size()) /
                                    static_cast<double>(out->over.size());
  }
}

std::string AnswerBracket::Summary() const {
  if (!ok) return "ANSWER* failed: " + error;
  std::string out = TupleSetToString(under);
  if (!out.empty()) out += "\n";
  if (complete) {
    out += "answer is complete";
    return out;
  }
  out += "answer is not known to be complete\n";
  out += "these tuples may be part of the answer:\n";
  out += TupleSetToString(delta);
  if (completeness_lower_bound.has_value()) {
    out += "\nanswer is at least " +
           std::to_string(under.size()) + "/" + std::to_string(over.size()) +
           " complete";
  }
  return out;
}

}  // namespace ucqn
