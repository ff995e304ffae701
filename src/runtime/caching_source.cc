#include "runtime/caching_source.h"

#include <unordered_map>

namespace ucqn {

CachingSource::CachingSource(Source* inner, std::size_t capacity)
    : inner_(inner), capacity_(capacity) {
  // One shard reproduces the original exact global LRU order; the store
  // lives and dies with this view, so entries never expire by age.
  SharedCacheStore::Options options;
  options.shards = 1;
  options.max_entries = capacity;
  owned_store_ = std::make_unique<SharedCacheStore>(options);
  store_ = owned_store_.get();
}

CachingSource::CachingSource(Source* inner, SharedCacheStore& store)
    : inner_(inner), capacity_(0), store_(&store) {}

std::vector<EncodedFetchResult> CachingSource::FetchEncoded(
    const std::string& relation, const AccessPattern& pattern,
    const std::vector<EncodedTuple>& signatures, CallShape shape) {
  const std::size_t n = signatures.size();
  std::vector<EncodedFetchResult> out(n);
  // Group the wave by cache key *before* touching the store: each
  // distinct key gets exactly one TryAcquire per round, so a wave can
  // never become a follower of its own flight. The first requester of a
  // key is its group leader; later requesters piggyback and count as
  // hits.
  const SourceCacheKeyPacker packer(relation, pattern);
  std::unordered_map<std::string, std::size_t> group_of;  // key -> group
  group_of.reserve(n);
  std::vector<std::string> group_key;
  std::vector<std::size_t> group_leader;  // group -> request index
  std::vector<std::vector<std::size_t>> group_members;
  for (std::size_t i = 0; i < n; ++i) {
    std::string key = packer.Pack(signatures[i]);
    auto [it, fresh] = group_of.try_emplace(key, group_leader.size());
    if (fresh) {
      group_key.push_back(std::move(key));
      group_leader.push_back(i);
      group_members.emplace_back();
    }
    group_members[it->second].push_back(i);
  }
  auto answer = [&](std::size_t g, const EncodedFetchResult& result) {
    for (std::size_t member : group_members[g]) out[member] = result;
  };

  std::vector<std::size_t> pending(group_leader.size());
  for (std::size_t g = 0; g < pending.size(); ++g) pending[g] = g;
  while (!pending.empty()) {
    // Lookup phase: one store lookup per pending key. Hits answer their
    // whole group; leader groups are collected for one batched fetch;
    // follower groups (in flight in another execution) are parked until
    // after this wave's own leaders publish — waiting first could
    // deadlock two waves leading/following each other's keys.
    std::vector<std::size_t> leader_groups;
    std::vector<std::size_t> follower_groups;
    for (std::size_t g : pending) {
      const std::size_t members = group_members[g].size();
      SharedCacheStore::Lookup lookup =
          store_->TryAcquire(group_key[g], relation);
      if (lookup.stale_drop) ++stats_.stale_drops;
      switch (lookup.state) {
        case SharedCacheStore::LookupState::kHit:
          stats_.hits += members;
          answer(g, EncodedFetchResult::Ok(std::move(lookup.rows)));
          break;
        case SharedCacheStore::LookupState::kLeader:
          leader_groups.push_back(g);
          ++stats_.misses;
          stats_.hits += members - 1;  // piggybacked dupes
          break;
        case SharedCacheStore::LookupState::kFollower:
          follower_groups.push_back(g);
          stats_.hits += members;
          stats_.flight_waits += 1;
          break;
      }
    }

    // Fetch phase: one request per distinct missed key, batched so the
    // layers below can overlap them; then publish successes (waking any
    // cross-execution followers) and abandon failures so nothing stays
    // pinned in flight.
    if (!leader_groups.empty()) {
      std::vector<EncodedTuple> missed;
      missed.reserve(leader_groups.size());
      for (std::size_t g : leader_groups) {
        missed.push_back(signatures[group_leader[g]]);
      }
      std::vector<EncodedFetchResult> fetched =
          inner_->FetchEncoded(relation, pattern, missed, shape);
      for (std::size_t f = 0; f < leader_groups.size(); ++f) {
        const std::size_t g = leader_groups[f];
        if (fetched[f].ok()) {
          stats_.evictions +=
              store_->Publish(group_key[g], relation, fetched[f].rows);
        } else {
          store_->Abandon(group_key[g]);
        }
        answer(g, fetched[f]);
      }
    }

    // Wait phase: collect the other executions' flights. An abandoned
    // flight (the other execution's call failed) undoes its optimistic
    // count and goes round again, to be counted on whatever path it
    // takes then.
    pending.clear();
    for (std::size_t g : follower_groups) {
      SharedRows rows = store_->WaitForFlight(group_key[g]);
      if (rows != nullptr) {
        answer(g, EncodedFetchResult::Ok(std::move(rows)));
      } else {
        stats_.hits -= group_members[g].size();
        stats_.flight_waits -= 1;
        pending.push_back(g);
      }
    }
  }
  return out;
}

void CachingSource::Invalidate() { store_->InvalidateAll(); }

void CachingSource::InvalidateRelation(const std::string& relation) {
  store_->InvalidateRelation(relation);
}

}  // namespace ucqn
