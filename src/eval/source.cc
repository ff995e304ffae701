#include "eval/source.h"

#include "util/logging.h"

namespace ucqn {

std::vector<FetchResult> Source::FetchBatch(
    const std::string& relation, const AccessPattern& pattern,
    const std::vector<std::vector<std::optional<Term>>>& inputs) {
  std::vector<FetchResult> results;
  results.reserve(inputs.size());
  for (const std::vector<std::optional<Term>>& request : inputs) {
    results.push_back(Fetch(relation, pattern, request));
  }
  return results;
}

std::vector<Tuple> Source::FetchOrDie(
    const std::string& relation, const AccessPattern& pattern,
    const std::vector<std::optional<Term>>& inputs) {
  FetchResult result = Fetch(relation, pattern, inputs);
  UCQN_CHECK_MSG(result.ok(), result.error.c_str());
  return std::move(result.tuples);
}

FetchResult DatabaseSource::Fetch(
    const std::string& relation, const AccessPattern& pattern,
    const std::vector<std::optional<Term>>& inputs) {
  const RelationSchema* schema = catalog_->Find(relation);
  UCQN_CHECK_MSG(schema != nullptr, "fetch of undeclared relation");
  UCQN_CHECK_MSG(schema->HasPattern(pattern),
                 "fetch with undeclared access pattern");
  UCQN_CHECK_MSG(pattern.arity() == schema->arity(),
                 "fetch pattern arity must match the relation's declared "
                 "arity");
  UCQN_CHECK_MSG(inputs.size() == schema->arity(),
                 "fetch inputs must have one entry per declared slot");
  for (std::size_t j = 0; j < pattern.arity(); ++j) {
    if (pattern.IsInputSlot(j)) {
      UCQN_CHECK_MSG(inputs[j].has_value() && inputs[j]->IsGround(),
                     "input slot requires a ground value");
    }
  }

  std::vector<Tuple> result;
  const std::set<Tuple>* tuples = db_->Find(relation);
  if (tuples != nullptr) {
    for (const Tuple& tuple : *tuples) {
      // A stored tuple whose arity disagrees with the declared schema is a
      // data-loading bug; indexing it by pattern position would be UB.
      UCQN_CHECK_MSG(tuple.size() == schema->arity(),
                     "stored tuple arity mismatches the relation's declared "
                     "arity");
      bool matches = true;
      for (std::size_t j = 0; j < pattern.arity(); ++j) {
        if (pattern.IsInputSlot(j) && tuple[j] != *inputs[j]) {
          matches = false;
          break;
        }
      }
      if (matches) result.push_back(tuple);
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.calls;
    stats_.tuples_returned += result.size();
    SourceStats& rel_stats = per_relation_stats_[relation];
    ++rel_stats.calls;
    rel_stats.tuples_returned += result.size();
  }
  return FetchResult::Ok(std::move(result));
}

void DatabaseSource::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.Reset();
  per_relation_stats_.clear();
}

}  // namespace ucqn
