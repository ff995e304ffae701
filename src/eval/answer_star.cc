#include "eval/answer_star.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "cost/cost_model.h"
#include "cost/stats_catalog.h"
#include "eval/planner.h"
#include "util/logging.h"

namespace ucqn {

AnswerStarReport AnswerStar(const UnionQuery& q, const Catalog& catalog,
                            Source* source, const ExecutionOptions& options) {
  AnswerStarReport report;
  report.plans = PlanStar(q, catalog);

  UnionQuery under_plan = report.plans.under;
  UnionQuery over_plan = report.plans.over;
  if (options.cost_model != nullptr) {
    under_plan =
        ReorderForExecution(under_plan, catalog, *options.cost_model);
    over_plan = ReorderForExecution(over_plan, catalog, *options.cost_model);
  }

  // One stack for both plans: Qᵘ and Qᵒ overlap heavily (the underestimate
  // drops unanswerable parts of the overestimate's disjuncts), so sharing
  // the cache absorbs the duplicate calls. The stats sink, if any, is
  // drained once from this shared stack (the per-plan Execute calls run
  // with runtime and sink disabled).
  std::optional<SourceStack> stack;
  Source* effective = source;
  ExecutionOptions plan_options = options;
  RuntimeOptions runtime = options.runtime;
  if (options.stats_sink != nullptr) runtime.metering = true;
  if (runtime.Enabled()) {
    stack.emplace(source, runtime);
    effective = stack->source();
    plan_options.runtime = RuntimeOptions{};
    // Inter-literal pipelining is an executor-side decision, not a stack
    // layer, so it must survive the handoff to the per-plan Execute calls
    // — along with the shared clock, so overlapped waves are charged
    // against the same timeline the outer stack's layers sleep on.
    plan_options.runtime.pipeline_depth = runtime.pipeline_depth;
    plan_options.runtime.clock = stack->clock();
    plan_options.stats_sink = nullptr;
  }

  ExecutionResult under =
      Execute(under_plan, catalog, effective, plan_options);
  ExecutionResult over =
      under.ok ? Execute(over_plan, catalog, effective, plan_options)
               : ExecutionResult{};
  if (stack.has_value()) {
    report.runtime = stack->stats();
    if (options.stats_sink != nullptr && stack->meter() != nullptr) {
      options.stats_sink->Observe(*stack->meter());
    }
  }
  // The executor-side scheduling counters (pipelining rounds, operator-DAG
  // disjunct/morsel/anti-join work) live in the per-plan results, not the
  // shared stack; fold both plans' counts into the report — whether or not
  // a stack ran, since the executor did either way.
  report.runtime.pipeline_rounds =
      under.runtime.pipeline_rounds + over.runtime.pipeline_rounds;
  report.runtime.pipeline_overlaps =
      under.runtime.pipeline_overlaps + over.runtime.pipeline_overlaps;
  report.runtime.disjuncts_executed =
      under.runtime.disjuncts_executed + over.runtime.disjuncts_executed;
  report.runtime.morsels = under.runtime.morsels + over.runtime.morsels;
  report.runtime.antijoin_build_tuples = under.runtime.antijoin_build_tuples +
                                         over.runtime.antijoin_build_tuples;
  AssembleBracket(std::move(under), std::move(over), &report);
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
