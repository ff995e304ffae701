#include "eval/executor.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "ast/substitution.h"
#include "cost/cost_model.h"
#include "dict/term_dictionary.h"
#include "eval/dag_executor.h"
#include "eval/exec_common.h"
#include "eval/frontier.h"
#include "eval/op/operator.h"
#include "schema/adornment.h"

namespace ucqn {

namespace {

// Executor-side counters -> the result's RuntimeStats. Folded on every
// path, including executions that run no stack: the counters describe
// the executor, not the transport.
void FoldExecutorCounters(RuntimeStats* stats, const OperatorCounters& ops) {
  stats->pipeline_rounds = ops.pipeline_rounds;
  stats->pipeline_overlaps = ops.pipeline_overlaps;
  stats->disjuncts_executed = ops.disjuncts_executed;
  stats->morsels = ops.morsels;
  stats->antijoin_build_tuples = ops.antijoin_build_tuples;
}

// Runs `run(source, clock, counters)` behind the configured runtime stack
// (one stack per call, so a union's disjuncts — and both drives of
// ExecuteInTurn — share its cache and budget) and reports what the stack
// and the executor did.
template <typename Result, typename Run>
Result WithRuntime(Source* source, const ExecutionOptions& options, Run run) {
  const RuntimeOptions& runtime = options.runtime;
  OperatorCounters counters;
  if (!runtime.Enabled()) {
    // No stack, but a caller-supplied clock (runtime.clock) still drives
    // overlap accounting for concurrent waves.
    Result result = run(source, runtime.clock, &counters);
    FoldExecutorCounters(&result.runtime, counters);
    return result;
  }
  SourceStack stack(source, runtime);
  Result result = run(stack.source(), stack.clock(), &counters);
  result.runtime = stack.stats();
  FoldExecutorCounters(&result.runtime, counters);
  return result;
}

// The reference semantics (ExecutionOptions::batch off): one source call
// per live binding per literal, in order.
BindingsResult ExecuteReference(const ConjunctiveQuery& q,
                                const Catalog& catalog, Source* source,
                                const ExecutionOptions& options) {
  BindingsResult result;
  result.bindings.emplace_back();
  BoundVariables bound;
  const CostModel& model = ResolveCostModel(options);
  for (const Literal& literal : q.body()) {
    PlanContext context;
    context.live_bindings = static_cast<double>(
        std::max<std::size_t>(result.bindings.size(), 1));
    std::optional<AccessPattern> pattern =
        ChoosePattern(catalog, literal, bound, model, context);
    if (!pattern.has_value()) {
      result.error = "literal " + literal.ToString() +
                     " has no usable access pattern at its position";
      result.bindings.clear();
      return result;
    }
    std::vector<Substitution> next;
    for (const Substitution& binding : result.bindings) {
      if (!ExtendRow(literal, *pattern, binding, source, &next,
                     &result.error)) {
        result.bindings.clear();
        return result;
      }
    }
    if (literal.positive()) BindVariables(literal, &bound);
    result.bindings = std::move(next);
    if (options.max_bindings != 0 &&
        result.bindings.size() > options.max_bindings) {
      result.error = "execution exceeded max_bindings (" +
                     std::to_string(options.max_bindings) + ") at literal " +
                     literal.ToString();
      result.bindings.clear();
      return result;
    }
    if (result.bindings.empty()) break;  // negations cannot revive answers
  }
  result.ok = true;
  return result;
}

// Executes every disjunct and unions the projected heads. Empty-body
// disjuncts resolve inline, in disjunct order; the rest run their bodies
// together — one operator-DAG drive, or the reference loop one body after
// another when `batch` is off — and heads project in disjunct order
// afterwards.
ExecutionResult ExecuteDisjuncts(
    const std::vector<ConjunctiveQuery>& disjuncts, const Catalog& catalog,
    Source* source, const ExecutionOptions& options, Clock* clock,
    OperatorCounters* counters) {
  ExecutionResult result;
  result.ok = true;
  std::vector<const ConjunctiveQuery*> bodies;
  for (const ConjunctiveQuery& q : disjuncts) {
    if (!q.IsTrueQuery()) {
      bodies.push_back(&q);
      continue;
    }
    ExecutionResult part = ExecuteTrueQuery(q);
    if (!part.ok) return part;
    result.tuples.insert(part.tuples.begin(), part.tuples.end());
  }
  if (bodies.empty()) return result;
  auto fail = [](std::string error) {
    ExecutionResult failed;
    failed.error = std::move(error);
    return failed;
  };
  if (options.batch) {
    std::vector<ColumnarFrontier> witnesses;
    std::string error;
    if (!ExecuteChainsDag(bodies, catalog, source, options, clock, counters,
                          &witnesses, &error)) {
      return fail(std::move(error));
    }
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      if (!ProjectHeadColumns(*bodies[i], witnesses[i], &result)) break;
    }
    return result;
  }
  std::vector<std::vector<Substitution>> witnesses;
  for (const ConjunctiveQuery* q : bodies) {
    BindingsResult body = ExecuteReference(*q, catalog, source, options);
    if (!body.ok) return fail(std::move(body.error));
    witnesses.push_back(std::move(body.bindings));
  }
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    if (!ProjectHead(*bodies[i], witnesses[i], &result)) break;
  }
  return result;
}

}  // namespace

BindingsResult ExecuteForBindings(const ConjunctiveQuery& q,
                                  const Catalog& catalog, Source* source,
                                  const ExecutionOptions& options) {
  return WithRuntime<BindingsResult>(
      source, options,
      [&](Source* effective, Clock* clock, OperatorCounters* counters) {
        if (!options.batch) {
          return ExecuteReference(q, catalog, effective, options);
        }
        BindingsResult result;
        std::vector<ColumnarFrontier> witnesses;
        result.ok = ExecuteChainsDag({&q}, catalog, effective, options, clock,
                                     counters, &witnesses, &result.error);
        if (result.ok) {
          result.bindings =
              witnesses.front().DecodeAll(TermDictionary::Global());
        }
        return result;
      });
}

ExecutionResult Execute(const ConjunctiveQuery& q, const Catalog& catalog,
                        Source* source, const ExecutionOptions& options) {
  return WithRuntime<ExecutionResult>(
      source, options,
      [&](Source* effective, Clock* clock, OperatorCounters* counters) {
        return ExecuteDisjuncts({q}, catalog, effective, options, clock,
                                counters);
      });
}

ExecutionResult Execute(const UnionQuery& q, const Catalog& catalog,
                        Source* source, const ExecutionOptions& options) {
  return WithRuntime<ExecutionResult>(
      source, options,
      [&](Source* effective, Clock* clock, OperatorCounters* counters) {
        return ExecuteDisjuncts(q.disjuncts(), catalog, effective, options,
                                clock, counters);
      });
}

InTurnResult ExecuteInTurn(const UnionQuery& first, const UnionQuery& second,
                           const Catalog& catalog, Source* source,
                           const ExecutionOptions& options) {
  return WithRuntime<InTurnResult>(
      source, options,
      [&](Source* effective, Clock* clock, OperatorCounters* counters) {
        InTurnResult result;
        result.first = ExecuteDisjuncts(first.disjuncts(), catalog,
                                        effective, options, clock, counters);
        if (result.first.ok) {
          result.second = ExecuteDisjuncts(second.disjuncts(), catalog,
                                           effective, options, clock,
                                           counters);
        }
        return result;
      });
}

}  // namespace ucqn
