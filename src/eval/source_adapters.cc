#include "eval/source_adapters.h"

#include "util/logging.h"

namespace ucqn {

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
