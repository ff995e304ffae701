#ifndef UCQN_COST_STATS_CATALOG_H_
#define UCQN_COST_STATS_CATALOG_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "runtime/metered_source.h"

namespace ucqn {

// What the cost layer remembers about one relation's observed access
// behaviour — a compact snapshot of MeteredSource's RelationMetrics that
// survives across executions (and JSON round-trips).
struct RelationStats {
  std::uint64_t calls = 0;
  std::uint64_t errors = 0;
  std::uint64_t tuples = 0;
  // Upper bound of the histogram bucket holding the median call latency at
  // snapshot time. Merged snapshots keep a call-count-weighted average —
  // an approximation, but percentiles cannot be merged exactly from
  // aggregates and ranking candidates only needs the order of magnitude.
  double p50_latency_micros = 0.0;
  // Observed result fanout: mean tuples returned per *successful* call at
  // snapshot time, and how many successful calls back that mean. Unlike
  // MeanTuplesPerCall() (derived from the cumulative counters above, errors
  // included in the denominator), this pair survives merging with the same
  // weighted-average discipline as the p50 — and a scan pattern's fanout is
  // the relation's observed cardinality, which the adaptive model prefers
  // over the 1000-tuple fallback (see CardinalityEstimates::
  // ApplyObservedFanouts). Zero fanout_calls means "never observed"
  // (e.g. a snapshot written before the field existed).
  double mean_fanout = 0.0;
  std::uint64_t fanout_calls = 0;

  // Observed tuples per physical call — the keyed-access result size the
  // adaptive model uses when a pattern pushes bindings to the source.
  double MeanTuplesPerCall() const {
    return calls == 0 ? 0.0
                      : static_cast<double>(tuples) / static_cast<double>(calls);
  }
};

// Per-relation observed statistics feeding AdaptiveCostModel. Snapshots
// accumulate: Observe() after each execution merges the meter's counters
// into the running totals, so a long-lived catalog converges on the
// source fleet's steady-state behaviour. Serializes to JSON so a snapshot
// can be persisted (`ucqnc --stats-out`) and replayed (`--stats-in`) for
// reproducible planning decisions.
class StatsCatalog {
 public:
  StatsCatalog() = default;

  // Merges `observed` into the pooled entry for `relation`: counters add,
  // the p50 latency becomes the call-count-weighted average of old and
  // new.
  void Record(const std::string& relation, const RelationStats& observed);

  // Merges `observed` into the keyed entry for (relation, pattern word)
  // AND folds it into the pooled entry, so pooled stats stay the sum of
  // the keyed ones. The keyed split is what the adaptive model prefers:
  // one service's operations (the paper's `B^oio`-style patterns) can
  // have wildly different latencies, and pooling them misprices both.
  void Record(const std::string& relation, const std::string& pattern_word,
              const RelationStats& observed);

  // Merges every per-(relation, pattern) entry of `meter` (one
  // execution's worth of metrics) into this catalog. Call between
  // executions; MeteredSource counts cumulatively, so observe a given
  // meter only once (or Reset it).
  void Observe(const MeteredSource& meter);

  // Forgets everything observed about `relation` — the pooled entry and
  // the whole per-pattern split — so AdaptiveCostModel re-prices it from
  // its defaults after an invalidation. (Dropping only the cache would
  // leave the planner trusting pre-update latencies and fanouts.) Returns
  // the number of stats entries erased (pooled + keyed).
  std::size_t InvalidateRelation(const std::string& relation);

  // Pooled stats; nullptr when the relation has never been observed.
  const RelationStats* Find(const std::string& relation) const;
  // Keyed stats for one access pattern; nullptr when that (relation,
  // pattern) pair has never been observed — e.g. a snapshot written
  // before the split existed (migration: its pooled entries still load
  // and Find(relation) still answers).
  const RelationStats* Find(const std::string& relation,
                            const std::string& pattern_word) const;

  bool empty() const { return relations_.empty(); }
  std::size_t size() const { return relations_.size(); }
  const std::map<std::string, RelationStats>& relations() const {
    return relations_;
  }
  // Relation -> pattern word -> keyed stats. Relations loaded from an
  // old pooled-only snapshot have no entry here.
  const std::map<std::string, std::map<std::string, RelationStats>>&
  patterns() const {
    return patterns_;
  }

  // {"relations": {"R": {"calls": 3, "errors": 0, "tuples": 12,
  //                      "p50_latency_us": 500.0,
  //                      "patterns": {"io": {...}, ...}}, ...}}
  // The "patterns" key is omitted for relations without keyed stats, so a
  // pooled-only catalog emits the pre-split format unchanged.
  std::string ToJson() const;

  // Parses ToJson()'s format with util/json (unknown keys are ignored,
  // so exports from newer versions load; pre-split snapshots without
  // "patterns" load as pooled-only entries; a "fanout" without
  // "fanout_calls" loads as never observed). Returns nullopt and sets
  // `*error` to one line on malformed input: anything ParseJson refuses
  // (including "1.2.3", "--4" and non-finite numbers such as 1e999), a
  // count (calls, errors, tuples, fanout_calls) that is not an integer
  // in [0, 2^64) — the error names the relation and the key — or a
  // non-numeric p50_latency_us or fanout.
  static std::optional<StatsCatalog> FromJson(const std::string& text,
                                              std::string* error = nullptr);

 private:
  std::map<std::string, RelationStats> relations_;
  std::map<std::string, std::map<std::string, RelationStats>> patterns_;
};

}  // namespace ucqn

#endif  // UCQN_COST_STATS_CATALOG_H_
