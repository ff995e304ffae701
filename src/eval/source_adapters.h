#ifndef UCQN_EVAL_SOURCE_ADAPTERS_H_
#define UCQN_EVAL_SOURCE_ADAPTERS_H_

#include <map>
#include <string>
#include <vector>

#include "eval/source.h"

namespace ucqn {

// Note: the call-memoizing cache adapter lives in the source-access
// runtime layer as runtime/caching_source.h (LRU, eviction counters,
// invalidation hooks), alongside the retry/fault-injection/metrics
// decorators it composes with.

// Routes each relation to its own backend — the mediator picture, where
// every relation family lives at a different remote service. Fetching an
// un-routed relation is a wiring bug and CHECK-fails.
class CompositeSource : public Source {
 public:
  CompositeSource() = default;

  // Does not take ownership; `source` must outlive the adapter.
  void Route(const std::string& relation, Source* source);

  bool HasRoute(const std::string& relation) const {
    return routes_.count(relation) > 0;
  }

  FetchResult Fetch(
      const std::string& relation, const AccessPattern& pattern,
      const std::vector<std::optional<Term>>& inputs) override;

  // A wave is per-literal, hence per-relation, so the whole batch routes
  // to one backend — forwarded intact, in whichever dialect it came, so
  // that backend's own stack (and any batching it does) sees the wave as
  // a unit.
  std::vector<FetchResult> FetchBatch(
      const std::string& relation, const AccessPattern& pattern,
      const std::vector<std::vector<std::optional<Term>>>& inputs) override;
  std::vector<EncodedFetchResult> FetchEncoded(
      const std::string& relation, const AccessPattern& pattern,
      const std::vector<EncodedTuple>& signatures, CallShape shape) override;

 private:
  Source* RouteFor(const std::string& relation) const;

  std::map<std::string, Source*> routes_;
};

}  // namespace ucqn

#endif  // UCQN_EVAL_SOURCE_ADAPTERS_H_
