// StatsCatalog: merging observed runtime metrics across executions,
// snapshotting a MeteredSource, and the JSON round-trip behind
// `ucqnc --stats-out` / `--stats-in`.

#include "cost/stats_catalog.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "eval/database.h"
#include "runtime/clock.h"
#include "runtime/fault_injection.h"
#include "runtime/metered_source.h"
#include "schema/catalog.h"

namespace ucqn {
namespace {

TEST(RelationStatsTest, MeanTuplesPerCall) {
  RelationStats stats;
  EXPECT_DOUBLE_EQ(stats.MeanTuplesPerCall(), 0.0);  // no division by zero
  stats.calls = 4;
  stats.tuples = 10;
  EXPECT_DOUBLE_EQ(stats.MeanTuplesPerCall(), 2.5);
}

TEST(StatsCatalogTest, RecordMergesCountersAndWeightsLatency) {
  StatsCatalog catalog;
  EXPECT_TRUE(catalog.empty());
  EXPECT_EQ(catalog.Find("R"), nullptr);

  RelationStats first;
  first.calls = 3;
  first.errors = 1;
  first.tuples = 9;
  first.p50_latency_micros = 100.0;
  catalog.Record("R", first);

  RelationStats second;
  second.calls = 1;
  second.errors = 0;
  second.tuples = 5;
  second.p50_latency_micros = 500.0;
  catalog.Record("R", second);

  const RelationStats* merged = catalog.Find("R");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->calls, 4u);
  EXPECT_EQ(merged->errors, 1u);
  EXPECT_EQ(merged->tuples, 14u);
  // Call-count-weighted average: (3*100 + 1*500) / 4.
  EXPECT_DOUBLE_EQ(merged->p50_latency_micros, 200.0);
  EXPECT_EQ(catalog.size(), 1u);
}

TEST(StatsCatalogTest, ObserveSnapshotsAMeteredSource) {
  Catalog schema = Catalog::MustParse("R/1: o\nS/1: o\n");
  Database db = Database::MustParseFacts(R"(
    R("a").
    R("b").
    S("c").
  )");
  DatabaseSource backend(&db, &schema);
  FaultPlan faults;
  faults.latency_micros = 300;
  SimulatedClock clock;
  FaultInjectingSource slow(&backend, faults, &clock);
  MeteredSource meter(&slow, &clock);

  AccessPattern scan = AccessPattern::MustParse("o");
  ASSERT_TRUE(meter.Fetch("R", scan, {std::nullopt}).ok());
  ASSERT_TRUE(meter.Fetch("R", scan, {std::nullopt}).ok());
  ASSERT_TRUE(meter.Fetch("S", scan, {std::nullopt}).ok());

  StatsCatalog stats;
  stats.Observe(meter);
  const RelationStats* r = stats.Find("R");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->calls, 2u);
  EXPECT_EQ(r->tuples, 4u);
  // 300us sleeps land in the [256, 512) histogram bucket; the snapshot
  // carries the bucket's inclusive upper bound.
  EXPECT_DOUBLE_EQ(r->p50_latency_micros, 511.0);
  const RelationStats* s = stats.Find("S");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->calls, 1u);
  EXPECT_EQ(s->tuples, 1u);
}

TEST(StatsCatalogTest, JsonRoundTrip) {
  StatsCatalog catalog;
  RelationStats r;
  r.calls = 64;
  r.errors = 2;
  r.tuples = 640;
  r.p50_latency_micros = 5000.0;
  catalog.Record("Lookup", r);
  RelationStats s;
  s.calls = 1;
  s.tuples = 64;
  s.p50_latency_micros = 512.0;
  catalog.Record("Seed", s);

  const std::string json = catalog.ToJson();
  std::string error;
  std::optional<StatsCatalog> parsed = StatsCatalog::FromJson(json, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->size(), 2u);
  const RelationStats* lookup = parsed->Find("Lookup");
  ASSERT_NE(lookup, nullptr);
  EXPECT_EQ(lookup->calls, 64u);
  EXPECT_EQ(lookup->errors, 2u);
  EXPECT_EQ(lookup->tuples, 640u);
  EXPECT_DOUBLE_EQ(lookup->p50_latency_micros, 5000.0);
  const RelationStats* seed = parsed->Find("Seed");
  ASSERT_NE(seed, nullptr);
  EXPECT_EQ(seed->calls, 1u);
  // A second round-trip is byte-stable.
  EXPECT_EQ(parsed->ToJson(), json);
}

TEST(StatsCatalogTest, FromJsonIgnoresUnknownScalarKeys) {
  // Forward compatibility: a snapshot from a newer version with extra
  // per-relation fields still loads.
  const std::string json =
      R"({"relations": {"R": {"calls": 2, "tuples": 6, "p99_latency_us": 9.0,)"
      R"( "p50_latency_us": 128.0}}})";
  std::string error;
  std::optional<StatsCatalog> parsed = StatsCatalog::FromJson(json, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const RelationStats* r = parsed->Find("R");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->calls, 2u);
  EXPECT_EQ(r->tuples, 6u);
  EXPECT_DOUBLE_EQ(r->p50_latency_micros, 128.0);
}

TEST(StatsCatalogTest, FromJsonRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(StatsCatalog::FromJson("", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(StatsCatalog::FromJson("{", &error).has_value());
  EXPECT_FALSE(StatsCatalog::FromJson(R"({"relations": [1, 2]})", &error)
                   .has_value());
  EXPECT_FALSE(
      StatsCatalog::FromJson(R"({"relations": {"R": {"calls": }}})", &error)
          .has_value());
  // Counts are integers in [0, 2^64) (casting -1 or 1e20 to uint64 would
  // be undefined behaviour). Each reject is one error line naming the
  // relation and the key — or, for a token that is no JSON number, its
  // offset.
  for (const char* count : {"-1", "1e20", "1.2.3", "--4", "\"3\"", "2.5"}) {
    for (const char* key : {"calls", "errors", "tuples", "fanout_calls"}) {
      const std::string json = std::string(R"({"relations": {"R": {")") +
                               key + "\": " + count + "}}}";
      error.clear();
      EXPECT_FALSE(StatsCatalog::FromJson(json, &error).has_value()) << json;
      EXPECT_FALSE(error.empty()) << json;
      EXPECT_EQ(error.find('\n'), std::string::npos) << error;
    }
  }
  EXPECT_FALSE(StatsCatalog::FromJson(
                   R"({"relations": {"R": {"calls": -1}}})", &error)
                   .has_value());
  EXPECT_NE(error.find("relation \"R\""), std::string::npos) << error;
  EXPECT_NE(error.find("\"calls\""), std::string::npos) << error;
  // The keyed split is read the same way.
  EXPECT_FALSE(
      StatsCatalog::FromJson(
          R"({"relations": {"R": {"calls": 1, "patterns": {"io": {"tuples": 1e30}}}}})",
          &error)
          .has_value());
  EXPECT_NE(error.find("\"io\""), std::string::npos) << error;
  EXPECT_NE(error.find("\"tuples\""), std::string::npos) << error;
  // Latencies and fanouts are numbers; "5e" is not one.
  EXPECT_FALSE(StatsCatalog::FromJson(
                   R"({"relations": {"R": {"p50_latency_us": 5e}}})", &error)
                   .has_value());
  EXPECT_FALSE(StatsCatalog::FromJson(
                   R"({"relations": {"R": {"p50_latency_us": "fast"}}})",
                   &error)
                   .has_value());
  // The largest count below 2^64 that a double holds still loads.
  std::optional<StatsCatalog> big = StatsCatalog::FromJson(
      R"({"relations": {"R": {"calls": 18446744073709549568}}})", &error);
  ASSERT_TRUE(big.has_value()) << error;
  EXPECT_EQ(big->Find("R")->calls, 18446744073709549568u);
}

TEST(StatsCatalogTest, KeyedRecordSplitsPatternsAndFoldsPooled) {
  StatsCatalog catalog;
  RelationStats point;
  point.calls = 4;
  point.tuples = 4;
  point.p50_latency_micros = 100.0;
  catalog.Record("R", "io", point);
  RelationStats scan;
  scan.calls = 1;
  scan.tuples = 1000;
  scan.p50_latency_micros = 9000.0;
  catalog.Record("R", "oo", scan);

  // Each pattern keeps its own entry...
  const RelationStats* keyed = catalog.Find("R", "io");
  ASSERT_NE(keyed, nullptr);
  EXPECT_EQ(keyed->calls, 4u);
  EXPECT_DOUBLE_EQ(keyed->p50_latency_micros, 100.0);
  const RelationStats* scanned = catalog.Find("R", "oo");
  ASSERT_NE(scanned, nullptr);
  EXPECT_DOUBLE_EQ(scanned->p50_latency_micros, 9000.0);
  EXPECT_EQ(catalog.Find("R", "ii"), nullptr);
  // ...and the pooled entry stays the sum (weighted latency: 5*x = 4*100
  // + 1*9000).
  const RelationStats* pooled = catalog.Find("R");
  ASSERT_NE(pooled, nullptr);
  EXPECT_EQ(pooled->calls, 5u);
  EXPECT_EQ(pooled->tuples, 1004u);
  EXPECT_DOUBLE_EQ(pooled->p50_latency_micros, 1880.0);
}

TEST(StatsCatalogTest, ObserveKeysEntriesPerAccessPattern) {
  Catalog schema = Catalog::MustParse("R/2: oo io\n");
  Database db = Database::MustParseFacts(R"(
    R("a", "b").
    R("c", "d").
  )");
  DatabaseSource backend(&db, &schema);
  MeteredSource meter(&backend);
  ASSERT_TRUE(meter.Fetch("R", AccessPattern::MustParse("oo"),
                          {std::nullopt, std::nullopt})
                  .ok());
  ASSERT_TRUE(meter.Fetch("R", AccessPattern::MustParse("io"),
                          {Term::Constant("a"), std::nullopt})
                  .ok());

  StatsCatalog stats;
  stats.Observe(meter);
  const RelationStats* scan = stats.Find("R", "oo");
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->calls, 1u);
  EXPECT_EQ(scan->tuples, 2u);
  const RelationStats* keyed = stats.Find("R", "io");
  ASSERT_NE(keyed, nullptr);
  EXPECT_EQ(keyed->calls, 1u);
  EXPECT_EQ(keyed->tuples, 1u);
  const RelationStats* pooled = stats.Find("R");
  ASSERT_NE(pooled, nullptr);
  EXPECT_EQ(pooled->calls, 2u);
  EXPECT_EQ(pooled->tuples, 3u);
}

TEST(StatsCatalogTest, KeyedJsonRoundTripIsByteStable) {
  StatsCatalog catalog;
  RelationStats point;
  point.calls = 4;
  point.tuples = 4;
  point.p50_latency_micros = 100.0;
  catalog.Record("R", "io", point);
  RelationStats scan;
  scan.calls = 1;
  scan.tuples = 1000;
  scan.p50_latency_micros = 9000.0;
  catalog.Record("R", "oo", scan);
  RelationStats pooled_only;
  pooled_only.calls = 7;
  catalog.Record("S", pooled_only);

  const std::string json = catalog.ToJson();
  EXPECT_NE(json.find("\"patterns\""), std::string::npos);
  std::string error;
  std::optional<StatsCatalog> parsed = StatsCatalog::FromJson(json, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const RelationStats* keyed = parsed->Find("R", "io");
  ASSERT_NE(keyed, nullptr);
  EXPECT_EQ(keyed->calls, 4u);
  EXPECT_DOUBLE_EQ(keyed->p50_latency_micros, 100.0);
  const RelationStats* pooled = parsed->Find("R");
  ASSERT_NE(pooled, nullptr);
  EXPECT_EQ(pooled->calls, 5u);
  // S never had keyed stats; reloading must not invent any.
  EXPECT_EQ(parsed->patterns().count("S"), 0u);
  EXPECT_EQ(parsed->ToJson(), json);
}

TEST(StatsCatalogTest, PreSplitSnapshotMigratesAsPooledOnly) {
  // A snapshot written before the per-pattern split has no "patterns"
  // objects. It must load (pooled answers still work), report no keyed
  // entries, and — so old fleets can keep exchanging snapshots — write
  // back in the identical pre-split format.
  const std::string old_json =
      R"({"relations": {"Lookup": {"calls": 64, "errors": 2, "tuples": 640,)"
      R"( "p50_latency_us": 5000.0}}})";
  std::string error;
  std::optional<StatsCatalog> parsed =
      StatsCatalog::FromJson(old_json, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const RelationStats* pooled = parsed->Find("Lookup");
  ASSERT_NE(pooled, nullptr);
  EXPECT_EQ(pooled->calls, 64u);
  EXPECT_DOUBLE_EQ(pooled->p50_latency_micros, 5000.0);
  EXPECT_EQ(parsed->Find("Lookup", "io"), nullptr);
  EXPECT_TRUE(parsed->patterns().empty());
  EXPECT_EQ(parsed->ToJson().find("\"patterns\""), std::string::npos);
  // Round-trip through the current writer stays loadable and stable.
  std::optional<StatsCatalog> again =
      StatsCatalog::FromJson(parsed->ToJson(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->ToJson(), parsed->ToJson());
}

TEST(StatsCatalogTest, ZeroCallSnapshotsNeverPoisonTheLatencyAverage) {
  // Satellite regression: merging a zero-call observation must leave the
  // weighted p50 untouched instead of computing 0/0 = NaN — the classic
  // fully-cached-run snapshot, where the meter saw lookups but no
  // physical calls. And once an entry is NaN it stays NaN forever, so
  // this guards the whole adaptive feedback loop.
  StatsCatalog catalog;
  RelationStats empty;  // calls = 0, p50 = 0.0
  catalog.Record("R", empty);
  const RelationStats* after_empty = catalog.Find("R");
  ASSERT_NE(after_empty, nullptr);
  EXPECT_EQ(after_empty->calls, 0u);
  EXPECT_TRUE(std::isfinite(after_empty->p50_latency_micros));
  EXPECT_DOUBLE_EQ(after_empty->p50_latency_micros, 0.0);

  // A later real observation merges cleanly on top of the placeholder.
  RelationStats real;
  real.calls = 2;
  real.tuples = 4;
  real.p50_latency_micros = 300.0;
  catalog.Record("R", real);
  const RelationStats* merged = catalog.Find("R");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->calls, 2u);
  EXPECT_DOUBLE_EQ(merged->p50_latency_micros, 300.0);

  // And a zero-call observation on top of real stats changes nothing.
  catalog.Record("R", empty);
  EXPECT_DOUBLE_EQ(catalog.Find("R")->p50_latency_micros, 300.0);

  // Keyed entries take the same guarded path.
  catalog.Record("S", "io", empty);
  catalog.Record("S", "io", real);
  const RelationStats* keyed = catalog.Find("S", "io");
  ASSERT_NE(keyed, nullptr);
  EXPECT_DOUBLE_EQ(keyed->p50_latency_micros, 300.0);
}

TEST(StatsCatalogTest, NonFiniteLatencyInAMergeIsDiscarded) {
  // A corrupted in-memory observation (inf/NaN p50) must not infect the
  // pooled average: the counters still merge, the latency keeps its last
  // finite value.
  StatsCatalog catalog;
  RelationStats good;
  good.calls = 3;
  good.p50_latency_micros = 100.0;
  catalog.Record("R", good);
  RelationStats bad;
  bad.calls = 1;
  bad.p50_latency_micros = std::numeric_limits<double>::quiet_NaN();
  catalog.Record("R", bad);
  const RelationStats* merged = catalog.Find("R");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->calls, 4u);
  EXPECT_TRUE(std::isfinite(merged->p50_latency_micros));
  EXPECT_DOUBLE_EQ(merged->p50_latency_micros, 100.0);
}

TEST(StatsCatalogTest, FromJsonRejectsNonFiniteLatency) {
  // "1e999" overflows a double; a snapshot carrying it is refused (as
  // cache.json is) rather than letting inf reach the weighted merges.
  const std::string json =
      R"({"relations": {"R": {"calls": 2, "tuples": 6,)"
      R"( "p50_latency_us": 1e999}}})";
  std::string error;
  EXPECT_FALSE(StatsCatalog::FromJson(json, &error).has_value());
  EXPECT_NE(error.find("number out of range"), std::string::npos) << error;
}

TEST(StatsCatalogTest, FanoutMergesLikeLatency) {
  // The fanout pair follows the p50 discipline: call-count-weighted
  // average over the snapshots that actually observed successful calls.
  StatsCatalog catalog;
  RelationStats first;
  first.calls = 3;
  first.tuples = 9;
  first.mean_fanout = 3.0;
  first.fanout_calls = 3;
  catalog.Record("R", first);
  RelationStats second;
  second.calls = 1;
  second.tuples = 7;
  second.mean_fanout = 7.0;
  second.fanout_calls = 1;
  catalog.Record("R", second);
  const RelationStats* merged = catalog.Find("R");
  ASSERT_NE(merged, nullptr);
  // (3*3 + 1*7) / 4.
  EXPECT_DOUBLE_EQ(merged->mean_fanout, 4.0);
  EXPECT_EQ(merged->fanout_calls, 4u);

  // A zero-fanout-call snapshot (the fully-cached run) changes nothing.
  RelationStats cached;
  cached.calls = 5;  // lookups happened, physical fanout never observed
  catalog.Record("R", cached);
  EXPECT_DOUBLE_EQ(catalog.Find("R")->mean_fanout, 4.0);
  EXPECT_EQ(catalog.Find("R")->fanout_calls, 4u);

  // A non-finite observation merges its counters but not its fanout.
  RelationStats bad;
  bad.calls = 1;
  bad.mean_fanout = std::numeric_limits<double>::infinity();
  bad.fanout_calls = 1;
  catalog.Record("R", bad);
  const RelationStats* after_bad = catalog.Find("R");
  EXPECT_TRUE(std::isfinite(after_bad->mean_fanout));
  EXPECT_DOUBLE_EQ(after_bad->mean_fanout, 4.0);
  EXPECT_EQ(after_bad->fanout_calls, 4u);
}

TEST(StatsCatalogTest, FanoutJsonRoundTripsAndSanitizes) {
  StatsCatalog catalog;
  RelationStats observed;
  observed.calls = 4;
  observed.tuples = 12;
  observed.mean_fanout = 3.0;
  observed.fanout_calls = 4;
  catalog.Record("R", "io", observed);
  RelationStats never;  // fanout never observed: the fields stay out
  never.calls = 2;
  catalog.Record("S", never);

  const std::string json = catalog.ToJson();
  EXPECT_NE(json.find("\"fanout\""), std::string::npos);
  std::string error;
  std::optional<StatsCatalog> parsed = StatsCatalog::FromJson(json, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const RelationStats* keyed = parsed->Find("R", "io");
  ASSERT_NE(keyed, nullptr);
  EXPECT_DOUBLE_EQ(keyed->mean_fanout, 3.0);
  EXPECT_EQ(keyed->fanout_calls, 4u);
  EXPECT_EQ(parsed->ToJson(), json);  // byte-stable

  // A hand-edited snapshot with a 1e999 fanout is refused, exactly like
  // the p50 path.
  const std::string corrupt =
      R"({"relations": {"R": {"calls": 2, "tuples": 6,)"
      R"( "p50_latency_us": 10, "fanout": 1e999, "fanout_calls": 2}}})";
  EXPECT_FALSE(StatsCatalog::FromJson(corrupt, &error).has_value());
  EXPECT_FALSE(error.empty());

  // And a fanout with no fanout_calls at all is a claim with no weight:
  // it must not survive the load either.
  const std::string weightless =
      R"({"relations": {"R": {"calls": 2, "fanout": 5.0}}})";
  std::optional<StatsCatalog> unweighted =
      StatsCatalog::FromJson(weightless, &error);
  ASSERT_TRUE(unweighted.has_value()) << error;
  EXPECT_DOUBLE_EQ(unweighted->Find("R")->mean_fanout, 0.0);
  EXPECT_EQ(unweighted->Find("R")->fanout_calls, 0u);
}

TEST(StatsCatalogTest, ObserveRecordsFanoutFromSuccessfulCalls) {
  // Observe() derives the fanout from the meter: tuples over successful
  // (non-error) calls, so a flaky service's failed calls don't dilute
  // the per-call yield estimate.
  Catalog schema = Catalog::MustParse("R/1: o\n");
  Database db = Database::MustParseFacts("R(\"a\").\nR(\"b\").\n");
  DatabaseSource backend(&db, &schema);
  MeteredSource metered(&backend);
  AccessPattern scan = AccessPattern::MustParse("o");
  metered.Fetch("R", scan, {std::nullopt});
  StatsCatalog stats;
  stats.Observe(metered);
  const RelationStats* r = stats.Find("R");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->fanout_calls, 1u);
  EXPECT_DOUBLE_EQ(r->mean_fanout, 2.0);  // the scan saw the whole relation
}

TEST(StatsCatalogTest, ObserveTwiceAccumulates) {
  // The documented contract: Observe() merges, so observing two separate
  // meters (two executions) sums their counters.
  Catalog schema = Catalog::MustParse("R/1: o\n");
  Database db = Database::MustParseFacts("R(\"a\").\n");
  AccessPattern scan = AccessPattern::MustParse("o");
  StatsCatalog stats;
  for (int run = 0; run < 2; ++run) {
    DatabaseSource backend(&db, &schema);
    MeteredSource meter(&backend);
    ASSERT_TRUE(meter.Fetch("R", scan, {std::nullopt}).ok());
    stats.Observe(meter);
  }
  const RelationStats* r = stats.Find("R");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->calls, 2u);
  EXPECT_EQ(r->tuples, 2u);
}

TEST(StatsCatalogTest, InvalidateRelationForgetsPooledAndKeyedEntries) {
  // The staleness bugfix behind the daemon's `invalidate` op: dropping a
  // relation's cache entries without dropping its stats would leave the
  // planner pricing the post-update service with pre-update latencies.
  StatsCatalog stats;
  RelationStats observed;
  observed.calls = 4;
  observed.tuples = 8;
  observed.p50_latency_micros = 900.0;
  stats.Record("R", "io", observed);
  stats.Record("R", "oo", observed);
  stats.Record("S", observed);
  ASSERT_NE(stats.Find("R"), nullptr);
  ASSERT_NE(stats.Find("R", "io"), nullptr);

  // Pooled entry + two keyed entries erased; other relations untouched.
  EXPECT_EQ(stats.InvalidateRelation("R"), 3u);
  EXPECT_EQ(stats.Find("R"), nullptr);
  EXPECT_EQ(stats.Find("R", "io"), nullptr);
  EXPECT_EQ(stats.Find("R", "oo"), nullptr);
  ASSERT_NE(stats.Find("S"), nullptr);
  EXPECT_EQ(stats.patterns().count("R"), 0u);

  // Already-forgotten relations report zero erased (idempotent).
  EXPECT_EQ(stats.InvalidateRelation("R"), 0u);
  EXPECT_EQ(stats.InvalidateRelation("never-seen"), 0u);
}

}  // namespace
}  // namespace ucqn
