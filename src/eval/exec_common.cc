#include "eval/exec_common.h"

#include <utility>

namespace ucqn {

std::vector<std::optional<Term>> FetchInputs(const Literal& literal,
                                             const AccessPattern& pattern,
                                             const Substitution& binding) {
  std::vector<std::optional<Term>> inputs;
  inputs.reserve(literal.args().size());
  for (std::size_t j = 0; j < literal.args().size(); ++j) {
    Term value = binding.Apply(literal.args()[j]);
    if (pattern.IsInputSlot(j) && value.IsGround()) {
      inputs.emplace_back(std::move(value));
    } else {
      inputs.emplace_back(std::nullopt);
    }
  }
  return inputs;
}

std::optional<Substitution> UnifyWithTuple(const Literal& literal,
                                           const Tuple& tuple,
                                           const Substitution& binding) {
  Substitution extended = binding;
  const std::vector<Term>& args = literal.args();
  if (args.size() != tuple.size()) return std::nullopt;
  for (std::size_t j = 0; j < args.size(); ++j) {
    Term value = extended.Apply(args[j]);
    if (value.IsGround()) {
      if (value != tuple[j]) return std::nullopt;
    } else {
      if (!extended.Bind(value, tuple[j])) return std::nullopt;
    }
  }
  return extended;
}

bool ExtendRow(const Literal& literal, const AccessPattern& pattern,
               const Substitution& row, Source* source,
               std::vector<Substitution>* out, std::string* error) {
  FetchResult fetched = source->Fetch(literal.relation(), pattern,
                                      FetchInputs(literal, pattern, row));
  if (!fetched.ok()) {
    *error = "source call for literal " + literal.ToString() +
             " failed: " + fetched.error;
    return false;
  }
  if (literal.positive()) {
    for (const Tuple& tuple : fetched.tuples) {
      std::optional<Substitution> extended =
          UnifyWithTuple(literal, tuple, row);
      if (extended.has_value()) out->push_back(std::move(*extended));
    }
    return true;
  }
  const Tuple instantiated = row.Apply(literal.args());
  for (const Tuple& tuple : fetched.tuples) {
    if (tuple == instantiated) return true;
  }
  out->push_back(row);
  return true;
}

// Empty body: the head must already be ground (overestimate null rows).
ExecutionResult ExecuteTrueQuery(const ConjunctiveQuery& q) {
  ExecutionResult result;
  for (const Term& t : q.head_terms()) {
    if (!t.IsGround()) {
      result.error = "empty-body rule with non-ground head is not a plan: " +
                     q.ToString();
      return result;
    }
  }
  result.ok = true;
  result.tuples.insert(q.head_terms());
  return result;
}

// Projects the body's witnesses through `q`'s head into `result`'s tuple
// set (set semantics). False — with the error set and the tuples cleared
// — when some witness leaves a head term non-ground.
bool ProjectHead(const ConjunctiveQuery& q,
                 const std::vector<Substitution>& bindings,
                 ExecutionResult* result) {
  for (const Substitution& binding : bindings) {
    Tuple head = binding.Apply(q.head_terms());
    bool ground = true;
    for (const Term& t : head) {
      if (!t.IsGround()) {
        ground = false;
        break;
      }
    }
    if (!ground) {
      result->ok = false;
      result->error = "head not fully bound by executable body: " +
                      q.ToString();
      result->tuples.clear();
      return false;
    }
    result->tuples.insert(std::move(head));
  }
  return true;
}

const CostModel& ResolveCostModel(const ExecutionOptions& options) {
  static const StaticCostModel kDefault;
  return options.cost_model != nullptr ? *options.cost_model : kDefault;
}

}  // namespace ucqn
