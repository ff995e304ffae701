#ifndef UCQN_EVAL_OP_OPERATOR_H_
#define UCQN_EVAL_OP_OPERATOR_H_

#include <cstdint>

namespace ucqn {

// The operator vocabulary of the push-based DAG executor (see
// eval/dag_executor.h): every disjunct of a UCQ¬ lowers to a linear
// chain of these, one per body literal plus the Materialize sink, and
// ColumnarFrontier morsels are pushed through the chain in witness
// order. The kinds are a classification of the one underlying
// fetch-and-merge step — which side of the merge a literal runs is
// decided here once, by the same IsFilterLiteral predicate the planner's
// literal ordering uses (cost/cost_model.h), so an explain dump and the
// executed chain can never disagree about filter placement.
enum class OperatorKind {
  // Positive literal whose input slots carry no already-bound variables:
  // one deduplicated request (constants only) fans the fetched tuples
  // out across the frontier.
  kAccessScan,
  // Positive literal joining fetched tuples against bound frontier
  // columns, appending the newly bound columns.
  kHashJoin,
  // Positive literal with every variable already bound: probes the
  // fetched tuples without adding columns (a duplicate-preserving
  // semi-join — one output row per matching fetched tuple, exactly the
  // reference loop's witness multiplicity).
  kFilter,
  // Negated literal: builds an id-keyed hash set per distinct request
  // from the fetched tuples and keeps exactly the frontier rows whose
  // instantiation is absent (Definition 3's membership filter, run
  // set-at-a-time).
  kHashAntiJoin,
  // Chain sink: decodes surviving morsels back into Substitutions in
  // derivation order.
  kMaterialize,
};

const char* OperatorKindName(OperatorKind kind);

// Executor-side counters of what the DAG did, folded into RuntimeStats
// by the public entry points (the source stack cannot see executor
// scheduling). All counting happens on the single driver thread — even
// "concurrent" disjuncts are rounds of staged waves resolved together —
// so the struct needs no synchronization; executions on different
// threads each carry their own instance and merge under the caller's
// lock (see server/session.cc).
struct OperatorCounters {
  // Disjunct chains driven to completion or failure.
  std::uint64_t disjuncts_executed = 0;
  // Morsels staged through fetch operators (one frontier chunk each; a
  // whole frontier is one morsel unless ExecutionOptions::morsel_rows
  // splits it).
  std::uint64_t morsels = 0;
  // Tuples inserted into anti-join build-side hash sets (distinct per
  // request).
  std::uint64_t antijoin_build_tuples = 0;
  // Driver rounds run with RuntimeOptions::pipeline_depth > 1, and how
  // many of them resolved >= 2 waves inside one overlap bracket. Both
  // stay 0 at depth 1.
  std::uint64_t pipeline_rounds = 0;
  std::uint64_t pipeline_overlaps = 0;
};

}  // namespace ucqn

#endif  // UCQN_EVAL_OP_OPERATOR_H_
