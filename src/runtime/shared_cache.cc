#include "runtime/shared_cache.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>

#include "util/logging.h"

namespace ucqn {

namespace {

void AppendId(std::string* key, std::uint32_t id) {
  char raw[sizeof(id)];
  std::memcpy(raw, &id, sizeof(id));
  key->append(raw, sizeof(id));
}

std::uint32_t IdAt(const std::string& key, std::size_t index) {
  std::uint32_t id;
  std::memcpy(&id, key.data() + index * sizeof(id), sizeof(id));
  return id;
}

}  // namespace

std::string PackSourceCacheSignature(
    const std::string& relation, const std::string& pattern_word,
    const std::vector<std::optional<Term>>& slots) {
  TermDictionary& dict = TermDictionary::Global();
  std::string key;
  key.reserve((2 + slots.size()) * sizeof(std::uint32_t));
  AppendId(&key, dict.Intern(relation));
  AppendId(&key, dict.Intern(pattern_word));
  for (const std::optional<Term>& slot : slots) {
    AppendId(&key, slot.has_value() ? dict.EncodeGround(*slot)
                                    : TermDictionary::kAbsentId);
  }
  return key;
}

SourceCacheKeyPacker::SourceCacheKeyPacker(const std::string& relation,
                                           const AccessPattern& pattern)
    : pattern_(pattern) {
  TermDictionary& dict = TermDictionary::Global();
  relation_id_ = dict.Intern(relation);
  word_id_ = dict.Intern(pattern.word());
}

std::string SourceCacheKeyPacker::Pack(const EncodedTuple& signature) const {
  std::string key;
  key.reserve((2 + signature.size()) * sizeof(std::uint32_t));
  AppendId(&key, relation_id_);
  AppendId(&key, word_id_);
  for (std::size_t j = 0; j < signature.size(); ++j) {
    // Footnote 4 again: values at output slots never reach the key.
    AppendId(&key, pattern_.IsInputSlot(j) ? signature[j]
                                           : TermDictionary::kAbsentId);
  }
  return key;
}

bool UnpackSourceCacheKey(const std::string& key, const std::string& relation,
                          std::string* pattern_word,
                          std::vector<std::optional<Term>>* slots) {
  const std::size_t width = sizeof(std::uint32_t);
  if (key.size() < 2 * width || key.size() % width != 0) return false;
  const TermDictionary& dict = TermDictionary::Global();
  const std::size_t minted = dict.size();
  const std::size_t ids = key.size() / width;
  for (std::size_t i = 0; i < ids; ++i) {
    const std::uint32_t id = IdAt(key, i);
    if (i < 2 && id == TermDictionary::kAbsentId) return false;
    if (id != TermDictionary::kAbsentId && id >= minted) return false;
  }
  // An opaque key of the right shape could still alias valid ids; the
  // entry's own relation disambiguates — a genuine packed key always
  // round-trips it.
  if (dict.Decode(IdAt(key, 0)) != relation) return false;
  *pattern_word = dict.Decode(IdAt(key, 1));
  slots->clear();
  slots->reserve(ids - 2);
  for (std::size_t i = 2; i < ids; ++i) {
    const std::uint32_t id = IdAt(key, i);
    if (id == TermDictionary::kAbsentId) {
      slots->emplace_back(std::nullopt);
    } else {
      slots->emplace_back(dict.DecodeTerm(id));
    }
  }
  return true;
}

SharedCacheStore::SharedCacheStore() : SharedCacheStore(Options()) {}

SharedCacheStore::SharedCacheStore(Options options)
    : options_(options) {
  if (options_.shards == 0) options_.shards = 1;
  if (options_.clock == nullptr) {
    owned_clock_ = std::make_unique<SteadyClock>();
    clock_ = owned_clock_.get();
  } else {
    clock_ = options_.clock;
  }
  // Split the global limits evenly; a shard always gets at least one
  // entry/tuple of room so a tiny budget still caches something.
  shard_max_entries_ =
      options_.max_entries == 0
          ? 0
          : std::max<std::size_t>(1, options_.max_entries / options_.shards);
  shard_budget_bytes_ =
      options_.budget_bytes == 0
          ? 0
          : std::max<std::size_t>(1, options_.budget_bytes / options_.shards);
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

SharedCacheStore::Shard& SharedCacheStore::ShardFor(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

const SharedCacheStore::Shard& SharedCacheStore::ShardFor(
    const std::string& key) const {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::uint64_t SharedCacheStore::TtlFor(bool negative) const {
  if (negative && options_.negative_ttl_micros != 0) {
    return options_.negative_ttl_micros;
  }
  return options_.default_ttl_micros;
}

std::uint64_t SharedCacheStore::ExpiryFor(std::uint64_t now,
                                          std::uint64_t ttl) {
  const std::uint64_t never = std::numeric_limits<std::uint64_t>::max();
  return ttl >= never - now ? never : now + ttl;
}

std::size_t SharedCacheStore::EntryCost(const std::string& key,
                                        const std::string& relation,
                                        const EncodedRows& rows) {
  return sizeof(Entry) + sizeof(EncodedRows) + key.size() + relation.size() +
         rows.size() * rows.arity() * sizeof(std::uint32_t);
}

void SharedCacheStore::Erase(Shard& shard, std::list<Entry>::iterator it) {
  shard.tuples_held -= it->tuple_cost;
  shard.bytes_held -= it->byte_cost;
  shard.index.erase(it->key);
  shard.lru.erase(it);
}

SharedCacheStore::Lookup SharedCacheStore::TryAcquire(
    const std::string& key, const std::string& relation) {
  Shard& shard = ShardFor(key);
  Lookup result;
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    Entry& entry = *it->second;
    if (IsExpired(entry, clock_->NowMicros())) {
      // Expired: drop it and fall through to the miss path.
      ++shard.stats.stale_drops;
      result.stale_drop = true;
      Erase(shard, it->second);
    } else {
      ++shard.stats.hits;
      ++shard.per_relation[relation].hits;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      result.state = LookupState::kHit;
      result.rows = entry.rows;
      return result;
    }
  }
  if (shard.flights.count(key) > 0) {
    // Someone else is already fetching this key: coalesce. Counted as a
    // hit — no physical call will be made on our behalf.
    ++shard.stats.hits;
    ++shard.stats.flight_waits;
    ++shard.per_relation[relation].hits;
    result.state = LookupState::kFollower;
    return result;
  }
  ++shard.stats.misses;
  ++shard.per_relation[relation].misses;
  shard.flights.insert(key);
  result.state = LookupState::kLeader;
  return result;
}

std::size_t SharedCacheStore::EvictOverflow(Shard& shard) {
  std::size_t evicted = 0;
  while (!shard.lru.empty() &&
         ((shard_max_entries_ != 0 && shard.lru.size() > shard_max_entries_) ||
          (shard_budget_bytes_ != 0 &&
           shard.bytes_held > shard_budget_bytes_))) {
    // Never evict the entry just inserted at the front — a result larger
    // than the whole budget still serves this execution's repeats.
    if (std::prev(shard.lru.end()) == shard.lru.begin()) break;
    Erase(shard, std::prev(shard.lru.end()));
    ++shard.stats.evictions;
    ++evicted;
  }
  return evicted;
}

std::size_t SharedCacheStore::InsertFront(Shard& shard, Entry entry) {
  // A stale follower of an abandoned flight may publish a key that was
  // republished meanwhile; replace, keeping occupancy consistent.
  auto existing = shard.index.find(entry.key);
  if (existing != shard.index.end()) Erase(shard, existing->second);
  shard.tuples_held += entry.tuple_cost;
  shard.bytes_held += entry.byte_cost;
  const std::string key = entry.key;
  shard.lru.push_front(std::move(entry));
  shard.index.emplace(key, shard.lru.begin());
  ++shard.stats.inserts;
  return EvictOverflow(shard);
}

std::size_t SharedCacheStore::Publish(const std::string& key,
                                      const std::string& relation,
                                      SharedRows rows) {
  UCQN_CHECK_MSG(rows != nullptr, "a published result needs its rows");
  const std::uint64_t ttl = TtlFor(/*negative=*/rows->empty());
  Entry entry;
  entry.key = key;
  entry.relation = relation;
  entry.tuple_cost = std::max<std::size_t>(1, rows->size());
  entry.byte_cost = EntryCost(key, relation, *rows);
  entry.rows = std::move(rows);
  Shard& shard = ShardFor(key);
  std::size_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.flights.erase(key);
    // ttl == 0 keeps the "never expires" sentinel; otherwise saturate so
    // an enormous TTL cannot wrap around into the sentinel (or into the
    // past). ttl > 0 and a saturating sum also mean a *computed* expiry
    // can never be 0, so the sentinel is unambiguous.
    entry.expire_at_micros =
        ttl == 0 ? 0 : ExpiryFor(clock_->NowMicros(), ttl);
    evicted = InsertFront(shard, std::move(entry));
  }
  shard.cv.notify_all();
  return evicted;
}

std::vector<SharedCacheStore::ExportedEntry> SharedCacheStore::ExportEntries()
    const {
  std::vector<ExportedEntry> out;
  const std::uint64_t now = clock_->NowMicros();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const Entry& entry : shard->lru) {
      if (IsExpired(entry, now)) continue;  // not worth carrying across
      ExportedEntry exported;
      exported.relation = entry.relation;
      // Decode the packed key so the snapshot carries strings: ids are
      // process-local, and the restoring side re-encodes against its
      // own dictionary. Keys the unpacker does not recognize (opaque
      // test keys) travel verbatim instead.
      if (!UnpackSourceCacheKey(entry.key, entry.relation,
                                &exported.pattern_word, &exported.inputs)) {
        exported.key = entry.key;
      }
      exported.tuples = DecodeRows(*entry.rows);
      exported.ttl_remaining_micros =
          entry.expire_at_micros == 0 ? 0 : entry.expire_at_micros - now;
      out.push_back(std::move(exported));
    }
  }
  return out;
}

void SharedCacheStore::RestoreEntry(const ExportedEntry& restored) {
  // Decoded entries re-encode against the current process dictionary —
  // this is what makes snapshots survive dictionary renumbering across
  // restarts. Opaque entries keep their verbatim key.
  const std::string key =
      restored.key.empty()
          ? PackSourceCacheSignature(restored.relation, restored.pattern_word,
                                     restored.inputs)
          : restored.key;
  const std::size_t arity =
      restored.key.empty() ? restored.inputs.size()
      : restored.tuples.empty() ? 0
                                : restored.tuples.front().size();
  Entry entry;
  entry.key = key;
  entry.relation = restored.relation;
  entry.rows = EncodeRows(restored.tuples, arity);
  entry.tuple_cost = std::max<std::size_t>(1, entry.rows->size());
  entry.byte_cost = EntryCost(key, restored.relation, *entry.rows);
  // The exporter stored remaining lifetime; the clock epoch restarts
  // here. 0 stays the "never expires" sentinel, and ExpiryFor keeps a
  // huge remainder from wrapping into it. Empty results additionally
  // re-arm against the *restoring* store's negative TTL: the exporter's
  // remainder was computed under the old configuration, and a negative
  // entry must never outlive the lifetime this store would give a freshly
  // published miss (a restart that shortens --negative-ttl would otherwise
  // resurrect long-lived negatives). When the current negative policy is
  // "never expires" (TtlFor's 0 sentinel), the exported remainder stands.
  std::uint64_t remaining = restored.ttl_remaining_micros;
  if (restored.tuples.empty()) {
    const std::uint64_t fresh = TtlFor(/*negative=*/true);
    if (fresh != 0) {
      remaining = remaining == 0 ? fresh : std::min(remaining, fresh);
    }
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  entry.expire_at_micros =
      remaining == 0 ? 0 : ExpiryFor(clock_->NowMicros(), remaining);
  InsertFront(shard, std::move(entry));
}

void SharedCacheStore::Abandon(const std::string& key) {
  Shard& shard = ShardFor(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.flights.erase(key);
  }
  shard.cv.notify_all();
}

SharedRows SharedCacheStore::WaitForFlight(const std::string& key) {
  Shard& shard = ShardFor(key);
  std::unique_lock<std::mutex> lock(shard.mu);
  shard.cv.wait(lock, [&] { return shard.flights.count(key) == 0; });
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return nullptr;  // abandoned or evicted
  // Apply the same staleness rule as TryAcquire: a follower that wakes at
  // (or after) the published entry's expiry must not be handed a result
  // that a fresh lookup at the same instant would have stale-dropped.
  // (Reachable with a SimulatedClock or when a relation's TTL is shorter
  // than the wait; counted in the same stale-drop ledger.)
  if (IsExpired(*it->second, clock_->NowMicros())) {
    ++shard.stats.stale_drops;
    Erase(shard, it->second);
    return nullptr;  // caller refetches, as after an abandoned flight
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->rows;
}

void SharedCacheStore::InvalidateRelation(const std::string& relation) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (it->relation == relation) {
        auto victim = it++;
        Erase(*shard, victim);
        ++shard->stats.invalidated;
      } else {
        ++it;
      }
    }
  }
}

std::size_t SharedCacheStore::InvalidateDelta(
    const std::string& relation, const std::vector<Tuple>& changed) {
  if (changed.empty()) return 0;
  // Encode once, outside the shard locks, without interning: a constant
  // the dictionary has never seen is in no key, and neither is a
  // variable, so both become kAbsentId, which no valued slot equals.
  const TermDictionary& dict = TermDictionary::Global();
  const std::uint32_t relation_id = dict.Find(relation);
  std::vector<EncodedTuple> encoded;
  encoded.reserve(changed.size());
  for (const Tuple& tuple : changed) {
    EncodedTuple ids(tuple.size(), TermDictionary::kAbsentId);
    for (std::size_t j = 0; j < tuple.size(); ++j) {
      if (tuple[j].IsNull()) {
        ids[j] = TermDictionary::kNullId;
      } else if (tuple[j].IsConstant()) {
        ids[j] = dict.Find(tuple[j].name());
      }
    }
    encoded.push_back(std::move(ids));
  }
  const std::size_t width = sizeof(std::uint32_t);
  std::size_t dropped = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (it->relation != relation) {
        ++it;
        continue;
      }
      // A cached call's result can gain or lose a changed tuple only if
      // the tuple agrees with every valued slot of the packed key (valued
      // slots are exactly the bound input positions; footnote 4 keeps
      // output slots absent). Full scans have no valued slots and always
      // drop; keys that are not packed keys of `relation` (opaque test
      // keys) drop conservatively — we cannot prove the change misses
      // them.
      const std::string& key = it->key;
      bool drop = true;
      if (key.size() >= 2 * width && key.size() % width == 0 &&
          relation_id != TermDictionary::kAbsentId &&
          IdAt(key, 0) == relation_id) {
        const std::size_t slots = key.size() / width - 2;
        drop = false;
        for (const EncodedTuple& tuple : encoded) {
          if (tuple.size() != slots) continue;
          bool agrees = true;
          for (std::size_t j = 0; j < slots && agrees; ++j) {
            const std::uint32_t id = IdAt(key, 2 + j);
            agrees = id == TermDictionary::kAbsentId || id == tuple[j];
          }
          if (agrees) {
            drop = true;
            break;
          }
        }
      }
      if (drop) {
        auto victim = it++;
        Erase(*shard, victim);
        ++shard->stats.invalidated;
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  return dropped;
}

void SharedCacheStore::InvalidateAll() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->stats.invalidated += shard->lru.size();
    shard->lru.clear();
    shard->index.clear();
    shard->tuples_held = 0;
    shard->bytes_held = 0;
  }
}

SharedCacheStore::Stats SharedCacheStore::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.flight_waits += shard->stats.flight_waits;
    total.inserts += shard->stats.inserts;
    total.evictions += shard->stats.evictions;
    total.stale_drops += shard->stats.stale_drops;
    total.invalidated += shard->stats.invalidated;
    total.entries += shard->lru.size();
    total.tuples += shard->tuples_held;
    total.bytes += shard->bytes_held;
  }
  return total;
}

std::map<std::string, SharedCacheStore::RelationCounters>
SharedCacheStore::relation_counters() const {
  std::map<std::string, RelationCounters> out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [relation, counters] : shard->per_relation) {
      out[relation].hits += counters.hits;
      out[relation].misses += counters.misses;
    }
  }
  return out;
}

double SharedCacheStore::RelationHitRate(const std::string& relation) const {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    auto it = shard->per_relation.find(relation);
    if (it != shard->per_relation.end()) {
      hits += it->second.hits;
      misses += it->second.misses;
    }
  }
  const std::uint64_t lookups = hits + misses;
  return lookups == 0
             ? 0.0
             : static_cast<double>(hits) / static_cast<double>(lookups);
}

std::size_t SharedCacheStore::size() const { return stats().entries; }

std::size_t SharedCacheStore::tuples() const { return stats().tuples; }

std::size_t SharedCacheStore::bytes() const { return stats().bytes; }

std::string SharedCacheStore::ToText() const {
  const Stats s = stats();
  std::string out =
      "shared-cache: entries=" + std::to_string(s.entries) +
      " tuples=" + std::to_string(s.tuples) +
      " bytes=" + std::to_string(s.bytes) +
      " hits=" + std::to_string(s.hits) +
      " misses=" + std::to_string(s.misses) +
      " flight_waits=" + std::to_string(s.flight_waits) +
      " evictions=" + std::to_string(s.evictions) +
      " stale=" + std::to_string(s.stale_drops) +
      " invalidated=" + std::to_string(s.invalidated);
  for (const auto& [relation, counters] : relation_counters()) {
    out += "\n" + relation + ": hits=" + std::to_string(counters.hits) +
           " misses=" + std::to_string(counters.misses);
  }
  return out;
}

std::string SharedCacheStore::ToJson() const {
  const Stats s = stats();
  std::string out =
      "{\"totals\": {\"entries\": " + std::to_string(s.entries) +
      ", \"tuples\": " + std::to_string(s.tuples) +
      ", \"bytes\": " + std::to_string(s.bytes) +
      ", \"hits\": " + std::to_string(s.hits) +
      ", \"misses\": " + std::to_string(s.misses) +
      ", \"flight_waits\": " + std::to_string(s.flight_waits) +
      ", \"inserts\": " + std::to_string(s.inserts) +
      ", \"evictions\": " + std::to_string(s.evictions) +
      ", \"stale_drops\": " + std::to_string(s.stale_drops) +
      ", \"invalidated\": " + std::to_string(s.invalidated) +
      "}, \"relations\": {";
  bool first = true;
  for (const auto& [relation, counters] : relation_counters()) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + relation + "\": {\"hits\": " + std::to_string(counters.hits) +
           ", \"misses\": " + std::to_string(counters.misses) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace ucqn
