#ifndef UCQN_EVAL_EXEC_COMMON_H_
#define UCQN_EVAL_EXEC_COMMON_H_

#include <optional>
#include <vector>

#include "ast/query.h"
#include "ast/substitution.h"
#include "cost/cost_model.h"
#include "eval/executor.h"
#include "schema/access_pattern.h"

namespace ucqn {

// Per-literal primitives of the paper's left-to-right reading, shared by
// the reference executor (eval/executor.cc) and standing-query
// maintenance (eval/delta.cc). Maintenance must extend rows exactly as a
// from-scratch run would, so both call these one definitions.

// The Fetch argument vector for `literal` under `binding`: ground values
// in the pattern's input slots, empty elsewhere. Output slots stay empty
// even when the binding knows their value — a source only accepts its
// declared inputs (Definition 1); the caller filters returned tuples
// against the binding itself.
std::vector<std::optional<Term>> FetchInputs(const Literal& literal,
                                             const AccessPattern& pattern,
                                             const Substitution& binding);

// Extends `binding` so that the literal's arguments equal `tuple`;
// nullopt on mismatch (covers repeated variables and arguments already
// ground).
std::optional<Substitution> UnifyWithTuple(const Literal& literal,
                                           const Tuple& tuple,
                                           const Substitution& binding);

// The model every pattern decision of an execution flows through: the
// caller's, or a StaticCostModel built from the legacy preference knob.
// `storage` keeps the fallback alive for the duration of the execution.
const CostModel* ResolveCostModel(const ExecutionOptions& options,
                                  std::optional<StaticCostModel>* storage);

}  // namespace ucqn

#endif  // UCQN_EVAL_EXEC_COMMON_H_
