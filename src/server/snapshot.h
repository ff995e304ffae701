#ifndef UCQN_SERVER_SNAPSHOT_H_
#define UCQN_SERVER_SNAPSHOT_H_

#include <string>

#include "cost/stats_catalog.h"
#include "runtime/shared_cache.h"

namespace ucqn {

// JSON spill/restore of the process-wide runtime state, so a restarted
// daemon starts warm: the SharedCacheStore's entries (keys, tuples,
// remaining TTLs) and the StatsCatalog feeding the adaptive cost model.
// Restart-warmth is the whole point of keeping the mediator resident —
// a snapshot carries it across the one thing a resident process cannot
// survive, its own restart.
//
// TTLs are persisted as *remaining* lifetime: the store's clock epoch is
// arbitrary (steady or simulated), so absolute stamps would be
// meaningless in the next process. Restored entries therefore age from
// the moment of restore, which under-expires by at most the downtime —
// sound for a cache whose invalidation story is explicit
// (InvalidateRelation), and exactly what "restart warm" asks for.

// Cache keys are persisted *decoded* — the store's packed dictionary-id
// keys are process-local, so each entry carries its call signature as
// strings (pattern word + per-slot input values) and the restoring
// process re-encodes it against its own TermDictionary. Warm restarts
// therefore survive dictionary renumbering. Opaque keys (not minted by
// SourceCacheKeyPacker) travel verbatim under "key" instead.
//
// {"entries": [{"pattern": "io", "inputs": ["a", null], "relation": "R",
//               "ttl_remaining_us": 0,
//               "tuples": [["a", "b"], ["c", null]]}, ...]}
// Input cells: string = constant, null = no value at that slot, true =
// the distinguished Δ-null.
std::string CacheSnapshotToJson(const SharedCacheStore& store);

// Restores CacheSnapshotToJson output into `store` (entries append; call
// on a fresh store for an exact restore). Constants and nulls
// round-trip; capacity/budget limits of the receiving store apply.
// All or nothing: every entry is parsed and validated (a decoded entry
// has one input cell per pattern slot, and every tuple of an entry the
// same arity) before any is restored, so on malformed input the store
// is untouched. Returns false and sets `*error` (one line) then.
bool RestoreCacheSnapshot(const std::string& json, SharedCacheStore* store,
                          std::string* error);

// File-level wrappers used by the daemon: `dir`/cache.json and
// `dir`/stats.json. Save creates `dir` if needed and overwrites both
// files; Load tolerates missing files (a first boot) and reports how
// much state it found.
struct SnapshotLoadReport {
  bool cache_loaded = false;
  bool stats_loaded = false;
  std::size_t cache_entries = 0;
  std::size_t stats_relations = 0;
};

bool SaveSnapshotFiles(const std::string& dir, const SharedCacheStore& store,
                       const StatsCatalog& stats, std::string* error);
bool LoadSnapshotFiles(const std::string& dir, SharedCacheStore* store,
                       StatsCatalog* stats, SnapshotLoadReport* report,
                       std::string* error);

}  // namespace ucqn

#endif  // UCQN_SERVER_SNAPSHOT_H_
