#include "eval/exec_common.h"

#include <unordered_set>
#include <utility>

namespace ucqn {

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
