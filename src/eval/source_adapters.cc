#include "eval/source_adapters.h"

#include "util/logging.h"

namespace ucqn {

namespace {

// Renders the input-slot projection of `tuple` under `pattern` as the
// index key. Term::ToString is injective enough here (quoted constants vs
// variables never collide, and tuples contain ground terms only).
std::string ProjectionKey(const AccessPattern& pattern, const Tuple& tuple) {
  std::string key;
  for (std::size_t j = 0; j < pattern.arity(); ++j) {
    if (pattern.IsInputSlot(j)) {
      key += tuple[j].ToString();
      key += '|';
    }
  }
  return key;
}

}  // namespace

const IndexedDatabaseSource::Index&
IndexedDatabaseSource::GetOrBuildIndexLocked(const std::string& relation,
                                             const AccessPattern& pattern) {
  const std::string index_key = relation + "^" + pattern.word();
  auto it = indexes_.find(index_key);
  if (it != indexes_.end()) return it->second;
  Index& index = indexes_[index_key];
  if (const std::set<Tuple>* tuples = db_->Find(relation)) {
    for (const Tuple& tuple : *tuples) {
      UCQN_CHECK_MSG(tuple.size() == pattern.arity(),
                     "stored tuple arity mismatches the relation's declared "
                     "arity");
      index.buckets[ProjectionKey(pattern, tuple)].push_back(tuple);
    }
  }
  return index;
}

FetchResult IndexedDatabaseSource::Fetch(
    const std::string& relation, const AccessPattern& pattern,
    const std::vector<std::optional<Term>>& inputs) {
  const RelationSchema* schema = catalog_->Find(relation);
  UCQN_CHECK_MSG(schema != nullptr, "fetch of undeclared relation");
  UCQN_CHECK_MSG(schema->HasPattern(pattern),
                 "fetch with undeclared access pattern");
  UCQN_CHECK_MSG(inputs.size() == schema->arity(),
                 "fetch inputs must have one entry per declared slot");
  std::string key;
  for (std::size_t j = 0; j < pattern.arity(); ++j) {
    if (pattern.IsInputSlot(j)) {
      UCQN_CHECK_MSG(inputs[j].has_value() && inputs[j]->IsGround(),
                     "input slot requires a ground value");
      key += inputs[j]->ToString();
      key += '|';
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.calls;
  const Index& index = GetOrBuildIndexLocked(relation, pattern);
  auto bucket = index.buckets.find(key);
  if (bucket == index.buckets.end()) return FetchResult::Ok({});
  stats_.tuples_returned += bucket->second.size();
  return FetchResult::Ok(bucket->second);
}

void CompositeSource::Route(const std::string& relation, Source* source) {
  UCQN_CHECK_MSG(source != nullptr, "null backend source");
  routes_[relation] = source;
}

Source* CompositeSource::RouteFor(const std::string& relation) const {
  auto it = routes_.find(relation);
  UCQN_CHECK_MSG(it != routes_.end(), "no route for relation");
  return it->second;
}

FetchResult CompositeSource::Fetch(
    const std::string& relation, const AccessPattern& pattern,
    const std::vector<std::optional<Term>>& inputs) {
  return RouteFor(relation)->Fetch(relation, pattern, inputs);
}

std::vector<FetchResult> CompositeSource::FetchBatch(
    const std::string& relation, const AccessPattern& pattern,
    const std::vector<std::vector<std::optional<Term>>>& inputs) {
  return RouteFor(relation)->FetchBatch(relation, pattern, inputs);
}

std::vector<EncodedFetchResult> CompositeSource::FetchEncoded(
    const std::string& relation, const AccessPattern& pattern,
    const std::vector<EncodedTuple>& signatures, CallShape shape) {
  return RouteFor(relation)->FetchEncoded(relation, pattern, signatures,
                                          shape);
}

}  // namespace ucqn
