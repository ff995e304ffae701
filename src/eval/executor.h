#ifndef UCQN_EVAL_EXECUTOR_H_
#define UCQN_EVAL_EXECUTOR_H_

#include <set>
#include <string>

#include "ast/query.h"
#include "eval/source.h"
#include "runtime/source_stack.h"
#include "schema/adornment.h"
#include "schema/catalog.h"

namespace ucqn {

class CostModel;

// Knobs for plan execution.
struct ExecutionOptions {
  // The cost model every pattern decision flows through (src/cost/). Not
  // owned; must outlive the execution. When null (the default) the
  // executor uses a default StaticCostModel, the historical behavior. An
  // AdaptiveCostModel fed by a StatsCatalog snapshot instead prices each
  // candidate pattern by observed latency and expected tuples, and
  // ANSWER* additionally reorders plan literals through it (see
  // eval/answer_star.h).
  const CostModel* cost_model = nullptr;
  // Hard cap on the number of live variable bindings after any literal
  // (the intermediate-result size of the left-to-right join). Exceeding
  // it fails the execution rather than exhausting memory on a hostile
  // plan/source combination. 0 = unlimited.
  std::size_t max_bindings = 0;
  // The executor has two paths. On (default), every disjunct runs
  // through the operator DAG (eval/dag_executor.h): each literal's calls
  // for a morsel of live bindings fly as one deduplicated wave over
  // dictionary-encoded columnar frontiers, issued via
  // Source::FetchEncoded so a parallel dispatcher can overlap them. Off
  // runs the per-binding reference loop — one call per binding per
  // literal — kept as the semantic oracle. Answers and witness order are
  // identical; waves only change transport scheduling.
  bool batch = true;
  // Rows per morsel a DAG stage cuts from its queue per round. 0
  // (default) cuts the whole queue — one wave per literal — or, when
  // runtime.pipeline_depth > 1, max(1, runtime.parallelism) rows. When
  // set, wide frontiers split into chunks of at most this many rows
  // (witness order preserved), so one literal's work feeds the parallel
  // dispatcher as several waves instead of one. Scheduling only: each
  // stage prices its access pattern once, with every row queued there on
  // first contact, so the pattern does not depend on the morsel size.
  std::size_t morsel_rows = 0;
  // How many disjunct chains of a union take part in each DAG round. 1
  // (default) drives disjuncts to completion in order — the sequential
  // union. Values >= 2 let disjuncts race: each round stages waves for
  // every participating chain and resolves them inside one clock overlap
  // bracket, so a SimulatedClock charges the round max-over-lanes.
  // Answers are identical at every setting.
  std::size_t disjunct_concurrency = 1;
  // Source-access runtime configuration (src/runtime/): call caching,
  // retry/backoff, call/deadline budgets, metrics. Disabled by default —
  // the executor then talks to `source` directly. When any layer is
  // enabled, Execute wraps `source` in a per-call SourceStack (shared
  // across the disjuncts of a union) and reports what it did through the
  // result's `runtime` field.
  RuntimeOptions runtime;
};

// Result of executing a plan against sources.
struct ExecutionResult {
  bool ok = false;
  // Set only when !ok: why the plan could not be executed (e.g. a literal
  // had no usable access pattern at its position, or a source call failed
  // after exhausting its retries or budget).
  std::string error;
  // The answer tuples (set semantics). Head terms may include null for
  // overestimate plans.
  std::set<Tuple> tuples;
  // What the source-access runtime did, when ExecutionOptions::runtime
  // enabled any of its layers (zeroes otherwise).
  RuntimeStats runtime;
};

// Executes an *executable* CQ¬ left-to-right (Definition 3's reading of a
// plan): positive literals are source calls extending the current variable
// bindings, negative literals are membership probes filtering them out.
// Access patterns are chosen greedily per literal (most input slots
// usable). Fails — without partial answers — if some literal cannot be
// called at its position, if an empty-body rule has a non-ground head, or
// if a source call ultimately fails (transient error past its retries, or
// an exhausted call/deadline budget).
//
// An empty-body rule with ground head terms yields exactly its head tuple;
// this is how overestimate disjuncts whose answerable part is empty
// contribute their "benefit of the doubt" null row.
ExecutionResult Execute(const ConjunctiveQuery& q, const Catalog& catalog,
                        Source* source, const ExecutionOptions& options = {});

// Executes every disjunct and unions the results. Fails if any disjunct
// fails. The `false` query yields the empty set. A configured runtime
// stack (cache, budget, ...) is shared across all disjuncts.
ExecutionResult Execute(const UnionQuery& q, const Catalog& catalog,
                        Source* source, const ExecutionOptions& options = {});

// Executes `first` and then, only if it succeeded, `second`, behind one
// runtime stack (one cache, budget and clock). ANSWER* runs Qᵘ and then
// the rest of Qᵒ this way (eval/answer_star.h).
struct InTurnResult {
  ExecutionResult first;
  ExecutionResult second;  // not ok, with no error, when `first` failed
  RuntimeStats runtime;    // both drives; the results' own stay zero
};
InTurnResult ExecuteInTurn(const UnionQuery& first, const UnionQuery& second,
                           const Catalog& catalog, Source* source,
                           const ExecutionOptions& options = {});

// Like Execute, but returns the satisfying variable bindings of the body
// instead of projected head tuples — the raw witnesses (one per
// derivation; distinct bindings may project to the same head tuple). Used
// by the Δ-explanation machinery (eval/explain.h).
struct BindingsResult {
  bool ok = false;
  std::string error;
  std::vector<Substitution> bindings;
  RuntimeStats runtime;
};
BindingsResult ExecuteForBindings(const ConjunctiveQuery& q,
                                  const Catalog& catalog, Source* source,
                                  const ExecutionOptions& options = {});

}  // namespace ucqn

#endif  // UCQN_EVAL_EXECUTOR_H_
