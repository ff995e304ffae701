#ifndef UCQN_RUNTIME_SHARED_CACHE_H_
#define UCQN_RUNTIME_SHARED_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dict/term_dictionary.h"
#include "eval/source.h"
#include "runtime/clock.h"

namespace ucqn {

// The footnote-4 call signature as a fixed-width id sequence: raw
// uint32s [relation_id, word_id, one id per slot] against the
// process-wide TermDictionary, TermDictionary::kAbsentId at output slots
// and at input slots the call does not ground. Output-slot values never
// participate — the source ignores them, so two calls differing only
// there are the same physical call. Hashing or comparing a key is a
// short memcmp, which is what makes cache probes on the executor's hot
// path cheap. Packed keys are process-local (ids do not survive a
// restart); snapshots therefore persist the *decoded* signature and
// re-encode on restore (see ExportedEntry).
//
// A packer resolves the relation and pattern-word ids once, so packing
// each call of a wave is a handful of integer stores.
class SourceCacheKeyPacker {
 public:
  SourceCacheKeyPacker(const std::string& relation,
                       const AccessPattern& pattern);

  // `signature` as EncodeSignature (eval/source.h) builds it; values at
  // output slots are masked out here all the same.
  std::string Pack(const EncodedTuple& signature) const;

 private:
  AccessPattern pattern_;
  std::uint32_t relation_id_;
  std::uint32_t word_id_;
};

// Packs an already-decoded signature: one entry per slot, nullopt for
// "no value" (the snapshot-restore and testing entry point).
std::string PackSourceCacheSignature(
    const std::string& relation, const std::string& pattern_word,
    const std::vector<std::optional<Term>>& slots);

// Decodes a packed key back into (pattern word, per-slot values),
// verifying it round-trips against `relation`. Returns false for keys
// not produced by SourceCacheKeyPacker (e.g. opaque test keys).
bool UnpackSourceCacheKey(const std::string& key, const std::string& relation,
                          std::string* pattern_word,
                          std::vector<std::optional<Term>>* slots);

// A process-wide cache of source-call results that outlives individual
// executions: repeated user queries over the same services (the
// multi-tenant analogue of ANSWER*'s Qᵘ/Qᵒ overlap) reuse each other's
// calls instead of paying full price every time.
//
// Structure: a sharded LRU keyed by packed call signatures. Each shard
// has its own mutex, so concurrently executing queries mostly contend
// only when they touch the same keys. Staleness is handled at the
// physical-access layer (TTLs plus explicit
// InvalidateRelation/InvalidateAll hooks) — predicting which *relations* a future query will touch is
// undecidable (Martinenghi), but dropping one service's entries when that
// service is known to have changed is always sound.
//
// Single-flight: when two executions miss the same key concurrently, the
// first becomes the *leader* (it performs the physical call and publishes
// the result) and the rest become *followers* (they block until the leader
// publishes, then reuse the result) — one physical call per distinct key
// no matter how many queries race on it. A leader that fails Abandon()s
// the flight and followers fall back to fetching themselves, so a
// transient error is never pinned and never deadlocks a waiter.
//
// Entries hold the encoded rows behind a shared pointer: a hit hands
// out the pointer, never a copy of the rows.
//
// The store itself never calls a Source: CachingSource (the thin
// per-execution view) drives the TryAcquire/Publish/Abandon/WaitForFlight
// protocol around its wrapped source. This keeps the store free of any
// per-execution state and lets each view keep per-execution hit/miss
// accounting while the store keeps the process-wide ledger.
class SharedCacheStore {
 public:
  struct Options {
    // Number of independently locked LRU shards. 1 gives exact global LRU
    // order (the per-execution CachingSource default); more shards trade
    // LRU exactness for less lock contention across queries.
    std::size_t shards = 8;
    // Maximum cached entries (0 = unbounded), split evenly across shards.
    std::size_t max_entries = 0;
    // Resident-size budget in *bytes* (0 = unbounded), split evenly
    // across shards. Charged per entry by EntryCost below — the bytes
    // the entry holds, so more rows or a higher arity cost more and an
    // empty (negative) result still pays its bookkeeping footprint
    // instead of a flat one-tuple charge.
    std::size_t budget_bytes = 0;
    // TTL applied to every entry; 0 means entries never expire by age.
    std::uint64_t default_ttl_micros = 0;
    // TTL for *negative* (empty) results, overriding the default TTL
    // when non-zero. An empty result is the cache's claim that a call
    // has no answer — the claim hardest to keep fresh (a tuple appearing
    // at the source flips it from true to false), so services commonly
    // expire it faster than positive data. 0 = no split: empty results
    // age exactly like non-empty ones.
    std::uint64_t negative_ttl_micros = 0;
    // Time source for TTL stamps. Not owned; pass a SimulatedClock for
    // deterministic expiry tests. Null = the store owns a SteadyClock.
    Clock* clock = nullptr;
  };

  // Process-wide counters, aggregated over all shards on read.
  struct Stats {
    std::uint64_t hits = 0;          // lookups served from the cache
    std::uint64_t misses = 0;        // lookups that became leaders
    std::uint64_t flight_waits = 0;  // lookups coalesced onto a flight
    std::uint64_t inserts = 0;       // published results
    std::uint64_t evictions = 0;     // entries dropped for capacity/budget
    std::uint64_t stale_drops = 0;   // entries dropped for TTL expiry
    std::uint64_t invalidated = 0;   // entries dropped via Invalidate*
    std::uint64_t entries = 0;       // current occupancy
    std::uint64_t tuples = 0;        // current occupancy, in tuples
    std::uint64_t bytes = 0;         // current occupancy, exact bytes

    double HitRatio() const {
      const std::uint64_t lookups = hits + misses;
      return lookups == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(lookups);
    }
  };

  struct RelationCounters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  SharedCacheStore();
  explicit SharedCacheStore(Options options);

  // --- lookup protocol (driven by CachingSource) --------------------------

  enum class LookupState {
    kHit,       // `rows` holds the cached result
    kLeader,    // caller owns the flight: fetch, then Publish or Abandon
    kFollower,  // another caller is fetching this key: WaitForFlight
  };
  struct Lookup {
    LookupState state = LookupState::kLeader;
    SharedRows rows;  // set only for kHit
    // True when this lookup dropped a TTL-expired entry on its way to a
    // miss — the per-execution staleness attribution.
    bool stale_drop = false;
  };

  // Non-blocking lookup. On kLeader the caller MUST eventually Publish or
  // Abandon the key (CachingSource does so on every path), or followers
  // would wait for the process lifetime.
  Lookup TryAcquire(const std::string& key, const std::string& relation);

  // Publishes a leader's successful result and wakes the key's followers.
  // Returns the number of entries evicted to make room.
  std::size_t Publish(const std::string& key, const std::string& relation,
                      SharedRows rows);

  // Releases a leader's flight without a result (the physical call
  // failed). Followers wake and fetch for themselves; the failure is not
  // cached.
  void Abandon(const std::string& key);

  // Blocks until the in-flight fetch of `key` publishes or abandons.
  // Returns the published rows, or null when the flight was abandoned
  // (or the entry already evicted again) — the caller then fetches for
  // itself.
  SharedRows WaitForFlight(const std::string& key);

  // --- invalidation (the staleness hooks) ---------------------------------

  // Drops every entry of `relation` — call when one service is known to
  // have changed. In-flight fetches are unaffected (their result reflects
  // the post-change service anyway).
  void InvalidateRelation(const std::string& relation);
  // Drops everything.
  void InvalidateAll();
  // Scoped invalidation for a delta feed: drops only the entries of
  // `relation` whose packed-key signature one of `changed` tuples can
  // match — a changed tuple affects a cached call's result iff it agrees
  // with every valued (bound-input) slot of the key, so keyed lookups
  // bound to other values survive the update. The changed tuples are
  // encoded once and compared id by id under each shard lock. Entries
  // whose key is not a packed key of `relation` are dropped
  // conservatively. Returns the number of entries dropped (also counted
  // in stats().invalidated).
  std::size_t InvalidateDelta(const std::string& relation,
                              const std::vector<Tuple>& changed);

  // --- snapshots (cross-process persistence) ------------------------------

  // One cache entry as exported for a snapshot. TTLs are exported as
  // *remaining* lifetime rather than absolute expiry stamps: the store's
  // clock epoch is arbitrary (steady or simulated), so only durations
  // survive a process boundary. 0 = never expires.
  //
  // Keys are exported *decoded*: a packed id key is unpacked into
  // (pattern word, per-slot values) so the snapshot carries strings,
  // not ids — the restoring process re-encodes against its own
  // dictionary, which makes warm restarts survive dictionary
  // renumbering. Entries whose key was not produced by
  // SourceCacheKeyPacker (tests publishing opaque keys) carry the raw
  // key verbatim in `key` instead, with `pattern_word`/`inputs` empty.
  // Rows travel decoded too.
  struct ExportedEntry {
    std::string key;  // verbatim opaque key; empty for decoded entries
    std::string relation;
    std::string pattern_word;                 // decoded signature...
    std::vector<std::optional<Term>> inputs;  // ...nullopt = no value
    std::vector<Tuple> tuples;
    std::uint64_t ttl_remaining_micros = 0;
  };

  // Copies every live entry out, LRU order per shard (most recent first),
  // skipping entries already expired at export time. In-flight fetches
  // are not exported (they have no result yet).
  std::vector<ExportedEntry> ExportEntries() const;

  // Re-inserts a snapshot entry: expiry restarts at now +
  // ttl_remaining_micros (0 = never). Decoded entries are re-encoded
  // into a packed key against the current process dictionary; opaque
  // entries keep their verbatim key. The tuples are encoded into rows of
  // their own arity (inputs.size() for a decoded entry, the first
  // tuple's for an opaque one); callers validate that every tuple has it
  // (RestoreCacheSnapshot does), since EncodeRows drops those that do not. Counted as an insert; the capacity
  // and byte budgets apply exactly as in Publish, so restoring into a
  // smaller store evicts from the cold end. Never touches flights — call
  // before serving, or concurrently with traffic (both are safe; a racing
  // Publish of the same key simply wins or is replaced by LRU age).
  void RestoreEntry(const ExportedEntry& entry);

  // The resident cost Publish charges for one entry, what it holds: its
  // bookkeeping (the entry and its rows object), the key and relation
  // spellings, and one 4-byte id per slot of every row. Public so budget
  // tests and capacity planning can compute thresholds rather than
  // hard-coding platform-dependent sizes.
  static std::size_t EntryCost(const std::string& key,
                               const std::string& relation,
                               const EncodedRows& rows);

  // --- observability ------------------------------------------------------

  Stats stats() const;
  // Observed per-relation lookup counters (hits/misses including
  // coalesced flights as hits).
  std::map<std::string, RelationCounters> relation_counters() const;
  // hits / (hits + misses) for one relation; 0 when never looked up. The
  // cache-aware cost model prices a hot relation's expected calls with
  // this (see AdaptiveCostOptions::shared_cache).
  double RelationHitRate(const std::string& relation) const;

  // Human-readable summary: a totals line plus one line per relation,
  // MeteredSource-style.
  std::string ToText() const;
  // {"totals": {...}, "relations": {"R": {"hits": h, "misses": m}, ...}}
  std::string ToJson() const;

  std::size_t size() const;    // current entries
  std::size_t tuples() const;  // current tuples held
  std::size_t bytes() const;   // current resident bytes held

 private:
  struct Entry {
    std::string key;
    std::string relation;
    SharedRows rows;
    std::size_t tuple_cost = 1;       // max(1, rows->size())
    std::size_t byte_cost = 0;        // EntryCost at publish time
    std::uint64_t expire_at_micros = 0;  // 0 = never
  };

  // Cache-line aligned: shards are allocated independently, but the
  // alignment guarantees two shards' mutexes and counters never share a
  // line even if an allocator packs them — concurrent executions on
  // different shards must not false-share (the CacheScope
  // FalseSharingAnalysis counter layout is the exemplar here).
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    // Front = most recently used; `index` points into `lru`.
    std::list<Entry> lru;
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    // Keys currently owned by a leader.
    std::unordered_set<std::string> flights;
    std::size_t tuples_held = 0;
    std::size_t bytes_held = 0;
    Stats stats;  // entries/tuples/bytes fields unused; filled on aggregate
    std::map<std::string, RelationCounters> per_relation;
  };

  Shard& ShardFor(const std::string& key);
  const Shard& ShardFor(const std::string& key) const;
  // The TTL for a result that is empty (`negative` true) or not:
  // negative results take the negative TTL when one is configured,
  // everything else the default TTL.
  std::uint64_t TtlFor(bool negative) const;
  // The one staleness rule, used by every path that reads an entry: an
  // entry is stale from the instant now == expire_at_micros (a TTL of T
  // serves reads at now+0 .. now+T-1). 0 = never expires.
  static bool IsExpired(const Entry& entry, std::uint64_t now) {
    return entry.expire_at_micros != 0 && now >= entry.expire_at_micros;
  }
  // now + ttl, saturating at the top of the range instead of wrapping —
  // a huge TTL must mean "practically never", and a wrapped sum could
  // otherwise collide with the 0 = "never expires" sentinel or land in
  // the past.
  static std::uint64_t ExpiryFor(std::uint64_t now, std::uint64_t ttl);
  // Drops `it` from `shard` (lock held). Does not touch counters.
  void Erase(Shard& shard, std::list<Entry>::iterator it);
  // Evicts from the cold end while the shard exceeds its entry/byte
  // limits, never dropping the just-inserted front entry (lock held).
  // Returns the number of evictions (also counted in the shard ledger).
  std::size_t EvictOverflow(Shard& shard);
  // Inserts at the front of `shard`'s LRU and evicts overflow (lock
  // held) — the shared tail of Publish and RestoreEntry.
  std::size_t InsertFront(Shard& shard, Entry entry);

  Options options_;
  std::unique_ptr<SteadyClock> owned_clock_;
  Clock* clock_;
  std::size_t shard_max_entries_;   // 0 = unbounded
  std::size_t shard_budget_bytes_;  // 0 = unbounded
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace ucqn

#endif  // UCQN_RUNTIME_SHARED_CACHE_H_
