#ifndef UCQN_EVAL_EXEC_COMMON_H_
#define UCQN_EVAL_EXEC_COMMON_H_

#include <optional>
#include <string>
#include <vector>

#include "ast/query.h"
#include "ast/substitution.h"
#include "cost/cost_model.h"
#include "eval/executor.h"
#include "eval/frontier.h"
#include "eval/source.h"
#include "schema/access_pattern.h"

namespace ucqn {

// Per-literal and per-head primitives of the paper's left-to-right
// reading: the per-binding row step (the reference loop and domain
// enumeration, eval/domain_enum.cc) and head projection (the executor
// and standing queries, eval/delta.cc), so each caller extends rows and
// projects heads the same way.

// One row step: fetches `literal` under `pattern` for `row` and appends
// the surviving extensions to `out` — every unifying tuple for a positive
// literal, `row` itself when the instantiated atom is absent for a
// negated one (ChoosePattern binds all of its variables first). False,
// with `*error` set, when the source call fails.
bool ExtendRow(const Literal& literal, const AccessPattern& pattern,
               const Substitution& row, Source* source,
               std::vector<Substitution>* out, std::string* error);

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
