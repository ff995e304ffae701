#ifndef UCQN_RUNTIME_CACHING_SOURCE_H_
#define UCQN_RUNTIME_CACHING_SOURCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "eval/source.h"
#include "runtime/shared_cache.h"

namespace ucqn {

// Memoizes identical source calls. Web-service operations are pure
// lookups for the duration of a query, and both ANSWER* (Qᵘ and Qᵒ over
// the same sources) and the executor itself (one Fetch per live binding)
// re-issue many identical calls; a cache in front of the transport turns
// those into no-ops.
//
// The cache key is (relation, pattern word, input-slot values) — output
// slots do not participate, per the paper's footnote 4: the source ignores
// values supplied there, so two calls differing only at output slots are
// the same call. Only successful results are cached; a failed call stays
// uncached so a later retry can succeed.
//
// CachingSource is a *view*: all storage lives in a SharedCacheStore. The
// legacy constructor owns a private single-shard store (exact global LRU,
// per-execution lifetime — the original semantics, bit-identical ledger).
// Handing in an external store instead makes the cache process-wide:
// every execution viewing the same store reuses every other execution's
// calls, with the store single-flighting concurrent misses so each
// distinct call hits the transport once however many queries race on it.
class CachingSource : public EncodedSource {
 public:
  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    // Misses coalesced onto another execution's in-flight fetch (counted
    // in `hits` too; zero for a private store).
    std::uint64_t flight_waits = 0;
    // TTL-expired entries this view dropped on its way to a miss.
    std::uint64_t stale_drops = 0;
  };

  // Per-execution private cache (legacy semantics). Does not take
  // ownership of `inner`; `capacity` bounds the number of cached call
  // results (LRU eviction), 0 means unbounded.
  explicit CachingSource(Source* inner, std::size_t capacity = 0);

  // View over a process-wide store. Owns neither; `store` must outlive
  // every view (and every execution) using it.
  CachingSource(Source* inner, SharedCacheStore& store);

  // Batch lookups with single-flight semantics: hits are answered from the
  // cache, misses are grouped by cache key so each distinct call is
  // forwarded exactly once however many requests in the wave share it, and
  // each successful result is inserted once. Duplicates of an in-flight
  // miss count as hits — they never reach the wrapped source, mirroring
  // what the sequential path would have done one call later. Hit/miss
  // accounting is therefore identical at every parallelism level. Keys
  // in flight in *another* execution are waited on after this wave's own
  // leaders publish, so cross-execution coalescing can never deadlock;
  // a key whose flight was abandoned goes round again. A hit hands out
  // the store's rows, not a copy.
  std::vector<EncodedFetchResult> FetchEncoded(
      const std::string& relation, const AccessPattern& pattern,
      const std::vector<EncodedTuple>& signatures, CallShape shape) override;

  bool Caches() const override { return true; }

  // This view's ledger only; shared()->stats() has the process totals.
  const CacheStats& cache_stats() const { return stats_; }
  std::size_t size() const { return store_->size(); }
  std::size_t capacity() const { return capacity_; }

  // The backing store: the owned private one, or the external shared one.
  SharedCacheStore* shared() { return store_; }

  // Invalidation hooks: drop everything (e.g. when the underlying data may
  // have changed between queries), or just one relation's entries (e.g. a
  // single updated service). These hit the backing store, so with a shared
  // store they invalidate for every execution.
  void Invalidate();
  void InvalidateRelation(const std::string& relation);

 private:
  Source* inner_;
  std::size_t capacity_;
  std::unique_ptr<SharedCacheStore> owned_store_;
  SharedCacheStore* store_;
  CacheStats stats_;
};

}  // namespace ucqn

#endif  // UCQN_RUNTIME_CACHING_SOURCE_H_
