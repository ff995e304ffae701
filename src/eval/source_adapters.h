#ifndef UCQN_EVAL_SOURCE_ADAPTERS_H_
#define UCQN_EVAL_SOURCE_ADAPTERS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "eval/source.h"

namespace ucqn {

// Note: the call-memoizing cache adapter lives in the source-access
// runtime layer as runtime/caching_source.h (LRU, eviction counters,
// invalidation hooks), alongside the retry/fault-injection/metrics
// decorators it composes with.

// A Source over an in-memory Database that answers keyed calls through a
// hash index instead of DatabaseSource's full scan: the first call for a
// given (relation, pattern) builds a map from input-slot projections to
// matching tuples, and every later call is a lookup. Semantics are
// identical to DatabaseSource (asserted by the adapter tests); only the
// access path differs — this is the "production" source the benches use
// for large instances.
//
// Thread-safe: Fetch may be called concurrently from a parallel
// dispatcher's pool threads (lazy index builds and stats updates are
// serialized under one lock; the underlying Database is read-only).
class IndexedDatabaseSource : public Source {
 public:
  // Does not take ownership; `db` and `catalog` must outlive the source.
  IndexedDatabaseSource(const Database* db, const Catalog* catalog)
      : db_(db), catalog_(catalog) {}

  FetchResult Fetch(
      const std::string& relation, const AccessPattern& pattern,
      const std::vector<std::optional<Term>>& inputs) override;

  const SourceStats& stats() const { return stats_; }
  std::size_t index_count() const { return indexes_.size(); }

 private:
  struct Index {
    // Keyed by the concatenated rendering of the input-slot values.
    std::unordered_map<std::string, std::vector<Tuple>> buckets;
  };

  // Requires mu_ to be held (node-based map: returned reference stays
  // valid across later inserts, but builds must not race).
  const Index& GetOrBuildIndexLocked(const std::string& relation,
                                     const AccessPattern& pattern);

  const Database* db_;
  const Catalog* catalog_;
  std::mutex mu_;
  SourceStats stats_;
  std::map<std::string, Index> indexes_;  // keyed by relation + "^" + word
};

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
