#ifndef UCQN_EVAL_EXEC_COMMON_H_
#define UCQN_EVAL_EXEC_COMMON_H_

#include <vector>

#include "ast/query.h"
#include "ast/substitution.h"
#include "cost/cost_model.h"
#include "eval/executor.h"
#include "eval/frontier.h"

namespace ucqn {

// The head and pricing primitives of the executor and standing queries
// (eval/delta.cc): the empty-body case, head projection (from the
// reference loop's bindings or from id columns) and the default cost
// model, so every caller projects heads and prices patterns the same way.

// Empty body: the head must already be ground (overestimate null rows).
ExecutionResult ExecuteTrueQuery(const ConjunctiveQuery& q);

// Projects the body's witnesses through `q`'s head into `result`'s tuple
// set (set semantics). False — with the error set and the tuples cleared
// — when some witness leaves a head term non-ground.
bool ProjectHead(const ConjunctiveQuery& q,
                 const std::vector<Substitution>& bindings,
                 ExecutionResult* result);

// ProjectHead straight from the id columns of a witness frontier (the
// operator DAG's output): each row's head tuple is built from ids, and
// each distinct one is decoded once. Same contract as ProjectHead.
bool ProjectHeadColumns(const ConjunctiveQuery& q,
                        const ColumnarFrontier& witnesses,
                        ExecutionResult* result);

// The model every pattern decision of an execution flows through: the
// caller's, or the default StaticCostModel.
const CostModel& ResolveCostModel(const ExecutionOptions& options);

}  // namespace ucqn

#endif  // UCQN_EVAL_EXEC_COMMON_H_
