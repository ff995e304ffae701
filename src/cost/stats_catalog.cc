#include "cost/stats_catalog.h"

#include <cmath>
#include <cstdio>

#include "util/json.h"

namespace ucqn {

namespace {

// Counters add; the p50 becomes the call-count-weighted average of old
// and new (percentiles cannot be merged exactly from aggregates, and
// ranking candidates only needs the order of magnitude).
void MergeInto(RelationStats* entry, const RelationStats& observed) {
  // A snapshot with calls == 0 (e.g. recorded from a fully-cached run)
  // says nothing about latency, so it must leave the entry's p50 alone:
  // the naive call-weighted average divides zero by zero and the NaN
  // permanently poisons AdaptiveCostModel pricing for this relation.
  // Non-finite inputs (FromJson refuses them, but an in-memory Record
  // can still carry one) are refused for the same reason: inf × 0 is NaN
  // even under a nonzero denominator.
  if (!std::isfinite(entry->p50_latency_micros)) {
    entry->p50_latency_micros = 0.0;
  }
  if (observed.calls > 0 && std::isfinite(observed.p50_latency_micros)) {
    const double total_calls = static_cast<double>(entry->calls) +
                               static_cast<double>(observed.calls);
    entry->p50_latency_micros =
        (entry->p50_latency_micros * static_cast<double>(entry->calls) +
         observed.p50_latency_micros * static_cast<double>(observed.calls)) /
        total_calls;
  }
  // The observed fanout merges under the same discipline, weighted by its
  // own successful-call count: a snapshot with fanout_calls == 0 (all
  // errors, or written before the field existed) says nothing about result
  // sizes and must not drag the mean toward zero, and a non-finite mean is
  // refused before it can poison the weighted average.
  if (!std::isfinite(entry->mean_fanout)) {
    entry->mean_fanout = 0.0;
    entry->fanout_calls = 0;
  }
  if (observed.fanout_calls > 0 && std::isfinite(observed.mean_fanout)) {
    const double total = static_cast<double>(entry->fanout_calls) +
                         static_cast<double>(observed.fanout_calls);
    entry->mean_fanout =
        (entry->mean_fanout * static_cast<double>(entry->fanout_calls) +
         observed.mean_fanout * static_cast<double>(observed.fanout_calls)) /
        total;
    entry->fanout_calls += observed.fanout_calls;
  }
  entry->calls += observed.calls;
  entry->errors += observed.errors;
  entry->tuples += observed.tuples;
}

}  // namespace

void StatsCatalog::Record(const std::string& relation,
                          const RelationStats& observed) {
  MergeInto(&relations_[relation], observed);
}

void StatsCatalog::Record(const std::string& relation,
                          const std::string& pattern_word,
                          const RelationStats& observed) {
  MergeInto(&patterns_[relation][pattern_word], observed);
  Record(relation, observed);  // pooled stays the sum of the keyed entries
}

void StatsCatalog::Observe(const MeteredSource& meter) {
  // Only the per-(relation, pattern) split is read: the keyed Record
  // folds each snapshot into the pooled entry too, and reading
  // per_relation() as well would double-count.
  for (const auto& [relation, split] : meter.per_access()) {
    for (const auto& [word, metrics] : split) {
      RelationStats snapshot;
      snapshot.calls = metrics.calls;
      snapshot.errors = metrics.errors;
      snapshot.tuples = metrics.tuples;
      snapshot.p50_latency_micros = static_cast<double>(
          metrics.latency.PercentileUpperBoundMicros(0.5));
      if (metrics.calls > metrics.errors) {
        snapshot.fanout_calls = metrics.calls - metrics.errors;
        snapshot.mean_fanout = static_cast<double>(metrics.tuples) /
                               static_cast<double>(snapshot.fanout_calls);
      }
      Record(relation, word, snapshot);
    }
  }
}

std::size_t StatsCatalog::InvalidateRelation(const std::string& relation) {
  std::size_t erased = relations_.erase(relation);
  auto split = patterns_.find(relation);
  if (split != patterns_.end()) {
    erased += split->second.size();
    patterns_.erase(split);
  }
  return erased;
}

const RelationStats* StatsCatalog::Find(const std::string& relation) const {
  auto it = relations_.find(relation);
  return it == relations_.end() ? nullptr : &it->second;
}

const RelationStats* StatsCatalog::Find(
    const std::string& relation, const std::string& pattern_word) const {
  auto it = patterns_.find(relation);
  if (it == patterns_.end()) return nullptr;
  auto entry = it->second.find(pattern_word);
  return entry == it->second.end() ? nullptr : &entry->second;
}

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

// Reads one stats object into `stats`; `where` ("relation \"R\"")
// prefixes every diagnostic. When `patterns` is non-null a nested
// "patterns" object of pattern-word -> stats is accepted (the keyed
// split); pre-split snapshots simply don't have the key and load as
// pooled-only. Unknown keys are ignored for forward compatibility.
bool ReadRelationStats(const JsonValue& object, const std::string& where,
                       RelationStats* stats,
                       std::map<std::string, RelationStats>* patterns,
                       std::string* error) {
  if (!object.is_object()) {
    *error = where + ": stats must be an object";
    return false;
  }
  std::string why;
  if (!object.GetCount("calls", &stats->calls, &why) ||
      !object.GetCount("errors", &stats->errors, &why) ||
      !object.GetCount("tuples", &stats->tuples, &why) ||
      !object.GetCount("fanout_calls", &stats->fanout_calls, &why)) {
    *error = where + ": " + why;
    return false;
  }
  for (const char* key : {"p50_latency_us", "fanout"}) {
    const JsonValue* value = object.Find(key);
    if (value != nullptr && !value->is_number()) {
      *error = where + ": \"" + key + "\" must be a number";
      return false;
    }
  }
  stats->p50_latency_micros = object.GetNumber("p50_latency_us");
  // A fanout is meaningful only with the successful calls that back it.
  if (stats->fanout_calls > 0) {
    stats->mean_fanout = object.GetNumber("fanout");
  }
  const JsonValue* split =
      patterns != nullptr ? object.Find("patterns") : nullptr;
  if (split == nullptr) return true;
  if (!split->is_object()) {
    *error = where + ": \"patterns\" must be an object";
    return false;
  }
  for (const auto& [word, keyed] : split->members()) {
    if (!ReadRelationStats(keyed, where + " pattern " + JsonQuote(word),
                           &(*patterns)[word], nullptr, error)) {
      return false;
    }
  }
  return true;
}

std::string StatsJsonFields(const RelationStats& stats) {
  std::string out = "\"calls\": " + std::to_string(stats.calls) +
                    ", \"errors\": " + std::to_string(stats.errors) +
                    ", \"tuples\": " + std::to_string(stats.tuples) +
                    ", \"p50_latency_us\": " +
                    FormatDouble(stats.p50_latency_micros);
  // Omitted when never observed, so pre-fanout snapshots round-trip
  // byte-identically (the same migration story as the "patterns" key).
  if (stats.fanout_calls > 0) {
    out += ", \"fanout\": " + FormatDouble(stats.mean_fanout) +
           ", \"fanout_calls\": " + std::to_string(stats.fanout_calls);
  }
  return out;
}

}  // namespace

std::string StatsCatalog::ToJson() const {
  std::string out = "{\"relations\": {";
  bool first = true;
  for (const auto& [relation, stats] : relations_) {
    if (!first) out += ", ";
    first = false;
    out += JsonQuote(relation) + ": {" + StatsJsonFields(stats);
    auto split = patterns_.find(relation);
    if (split != patterns_.end() && !split->second.empty()) {
      out += ", \"patterns\": {";
      bool first_pattern = true;
      for (const auto& [word, keyed] : split->second) {
        if (!first_pattern) out += ", ";
        first_pattern = false;
        out += JsonQuote(word) + ": {" + StatsJsonFields(keyed) + "}";
      }
      out += "}";
    }
    out += "}";
  }
  out += "}}";
  return out;
}

std::optional<StatsCatalog> StatsCatalog::FromJson(const std::string& text,
                                                   std::string* error) {
  std::string why;
  auto fail = [&](std::string reason) -> std::optional<StatsCatalog> {
    if (error != nullptr) *error = std::move(reason);
    return std::nullopt;
  };
  std::optional<JsonValue> json = ParseJson(text, &why);
  if (!json) return fail(why);
  const JsonValue* relations = json->Find("relations");
  if (relations == nullptr || !relations->is_object()) {
    return fail("expected a \"relations\" object");
  }
  StatsCatalog catalog;
  for (const auto& [relation, entry] : relations->members()) {
    RelationStats stats;
    std::map<std::string, RelationStats> keyed;
    if (!ReadRelationStats(entry, "relation " + JsonQuote(relation), &stats,
                           &keyed, &why)) {
      return fail(why);
    }
    // Direct assignment, not Record: the pooled entry already includes
    // the keyed ones (Record would double-count it) and must survive the
    // round-trip byte-identically.
    catalog.relations_[relation] = stats;
    if (!keyed.empty()) catalog.patterns_[relation] = std::move(keyed);
  }
  return catalog;
}

}  // namespace ucqn
