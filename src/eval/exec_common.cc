#include "eval/exec_common.h"

#include <unordered_set>
#include <utility>

namespace ucqn {

namespace {

// The Fetch argument vector for `literal` under `binding`: ground values
// in the pattern's input slots, empty elsewhere. Output slots stay empty
// even when the binding knows their value — a source only accepts its
// declared inputs (Definition 1); the caller filters returned tuples
// against the binding itself.
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

// Extends `binding` so that the literal's arguments equal `tuple`;
// nullopt on mismatch (covers repeated variables and arguments already
// ground).
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

}  // namespace

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

namespace {

void FailProjection(const ConjunctiveQuery& q, ExecutionResult* result) {
  result->ok = false;
  result->error = "head not fully bound by executable body: " + q.ToString();
  result->tuples.clear();
}

}  // namespace

bool ProjectHead(const ConjunctiveQuery& q,
                 const std::vector<Substitution>& bindings,
                 ExecutionResult* result) {
  for (const Substitution& binding : bindings) {
    Tuple head = binding.Apply(q.head_terms());
    for (const Term& t : head) {
      if (!t.IsGround()) {
        FailProjection(q, result);
        return false;
      }
    }
    result->tuples.insert(std::move(head));
  }
  return true;
}

bool ProjectHeadColumns(const ConjunctiveQuery& q,
                        const ColumnarFrontier& witnesses,
                        ExecutionResult* result) {
  if (witnesses.rows() == 0) return true;
  TermDictionary& dict = TermDictionary::Global();
  const std::vector<Term>& head = q.head_terms();
  // Per head position: a ground term's id, or the column binding it. A
  // variable with no column stays unbound in every witness.
  EncodedTuple ids(head.size());
  std::vector<std::size_t> columns(head.size(), ColumnarFrontier::kNoColumn);
  for (std::size_t k = 0; k < head.size(); ++k) {
    if (head[k].IsGround()) {
      ids[k] = dict.EncodeGround(head[k]);
      continue;
    }
    columns[k] = witnesses.ColumnOf(head[k].name());
    if (columns[k] == ColumnarFrontier::kNoColumn) {
      FailProjection(q, result);
      return false;
    }
  }
  std::unordered_set<EncodedTuple, EncodedTupleHash> seen;
  for (std::size_t r = 0; r < witnesses.rows(); ++r) {
    for (std::size_t k = 0; k < head.size(); ++k) {
      if (columns[k] != ColumnarFrontier::kNoColumn) {
        ids[k] = witnesses.Column(columns[k])[r];
      }
    }
    if (!seen.insert(ids).second) continue;
    Tuple tuple;
    tuple.reserve(ids.size());
    for (std::uint32_t id : ids) tuple.push_back(dict.DecodeTerm(id));
    result->tuples.insert(std::move(tuple));
  }
  return true;
}

const CostModel& ResolveCostModel(const ExecutionOptions& options) {
  static const StaticCostModel kDefault;
  return options.cost_model != nullptr ? *options.cost_model : kDefault;
}

}  // namespace ucqn
