// SharedCacheStore: the process-wide source-call cache — TTL expiry,
// invalidation hooks, exact-byte budgets, the single-flight lookup
// protocol, and its wiring through CachingSource views, SourceStack, and
// the cache-aware adaptive cost model. Concurrency coverage (two
// executions racing on one store) lives in shared_cache_concurrency_test.

#include "runtime/shared_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>

#include "ast/parser.h"
#include "cost/cost_model.h"
#include "eval/answer_star.h"
#include "eval/source.h"
#include "runtime/caching_source.h"
#include "runtime/clock.h"
#include "runtime/source_stack.h"

namespace ucqn {
namespace {

// The packed store key of one call, as CachingSource builds it.
std::string Key(const std::string& relation, const std::string& word,
                const std::vector<std::optional<Term>>& inputs) {
  const AccessPattern pattern = AccessPattern::MustParse(word);
  return SourceCacheKeyPacker(relation, pattern)
      .Pack(EncodeSignature(pattern, inputs));
}

// `tuples` (all of one arity) as the encoded rows the store holds.
SharedRows Rows(const std::vector<Tuple>& tuples = {}) {
  return EncodeRows(tuples, tuples.empty() ? 0 : tuples.front().size());
}

class SharedCacheTest : public ::testing::Test {
 protected:
  SharedCacheTest() {
    catalog_ = Catalog::MustParse("R/2: oo io\nS/1: o\n");
    db_ = Database::MustParseFacts(R"(
      R("a", "b").
      R("c", "d").
      S("b").
    )");
  }

  Catalog catalog_;
  Database db_;
};

TEST_F(SharedCacheTest, PackedKeyIgnoresOutputSlots) {
  // Output-slot values ignored, inputs and pattern word significant —
  // as a fixed-width id sequence.
  const std::string a =
      Key("R", "io", {Term::Constant("a"), Term::Constant("b")});
  const std::string b = Key("R", "io", {Term::Constant("a"), std::nullopt});
  EXPECT_EQ(a, b);  // footnote 4: the source ignores output-slot values
  EXPECT_EQ(a.size(), 4 * sizeof(std::uint32_t));  // relation, word, 2 slots
  EXPECT_NE(a, Key("R", "io", {Term::Constant("c"), std::nullopt}));
  // Same inputs through a different pattern is a different operation.
  EXPECT_NE(a, Key("R", "oo", {std::nullopt, std::nullopt}));
  // Δ-null at an input slot keys differently from the constant "null".
  EXPECT_NE(Key("R", "io", {Term::Null(), std::nullopt}),
            Key("R", "io", {Term::Constant("null"), std::nullopt}));
  // The packer masks output slots even when the signature carries ids
  // there.
  const AccessPattern keyed = AccessPattern::MustParse("io");
  const std::uint32_t b_id = TermDictionary::Global().Intern("b");
  EncodedTuple signature =
      EncodeSignature(keyed, {Term::Constant("a"), std::nullopt});
  signature[1] = b_id;
  EXPECT_EQ(SourceCacheKeyPacker("R", keyed).Pack(signature), a);
}

TEST_F(SharedCacheTest, PackedKeyUnpacksToItsSignature) {
  const std::string key = Key("R", "io", {Term::Constant("a"), std::nullopt});
  std::string word;
  std::vector<std::optional<Term>> slots;
  ASSERT_TRUE(UnpackSourceCacheKey(key, "R", &word, &slots));
  EXPECT_EQ(word, "io");
  ASSERT_EQ(slots.size(), 2u);
  ASSERT_TRUE(slots[0].has_value());
  EXPECT_EQ(*slots[0], Term::Constant("a"));
  EXPECT_FALSE(slots[1].has_value());
  // Re-packing the unpacked signature reproduces the key bit-for-bit.
  EXPECT_EQ(PackSourceCacheSignature("R", word, slots), key);
  // Opaque keys are recognized as such.
  EXPECT_FALSE(UnpackSourceCacheKey("not-a-packed-key", "R", &word, &slots));
  EXPECT_FALSE(UnpackSourceCacheKey(key, "NotR", &word, &slots));
}

TEST_F(SharedCacheTest, SurvivesAcrossViews) {
  // The cross-query story in miniature: two executions, two views, one
  // store — the second execution never touches the backend.
  DatabaseSource backend(&db_, &catalog_);
  SharedCacheStore store;
  const AccessPattern scan = AccessPattern::MustParse("oo");
  {
    CachingSource first(&backend, store);
    first.FetchOrDie("R", scan, {std::nullopt, std::nullopt});
    EXPECT_EQ(first.cache_stats().misses, 1u);
  }
  EXPECT_EQ(backend.stats().calls, 1u);
  CachingSource second(&backend, store);
  std::vector<Tuple> warm =
      second.FetchOrDie("R", scan, {std::nullopt, std::nullopt});
  EXPECT_EQ(backend.stats().calls, 1u);  // served from the store
  EXPECT_EQ(warm.size(), 2u);
  EXPECT_EQ(second.cache_stats().hits, 1u);
  EXPECT_EQ(second.cache_stats().misses, 0u);
  EXPECT_DOUBLE_EQ(store.RelationHitRate("R"), 0.5);
}

TEST_F(SharedCacheTest, TtlExpiresEntries) {
  DatabaseSource backend(&db_, &catalog_);
  SimulatedClock clock;
  SharedCacheStore::Options options;
  options.default_ttl_micros = 1000;
  options.clock = &clock;
  SharedCacheStore store(options);
  CachingSource cached(&backend, store);
  const AccessPattern scan = AccessPattern::MustParse("o");

  cached.FetchOrDie("S", scan, {std::nullopt});
  clock.Advance(999);
  cached.FetchOrDie("S", scan, {std::nullopt});
  EXPECT_EQ(backend.stats().calls, 1u);  // still fresh at TTL - 1
  clock.Advance(1);
  cached.FetchOrDie("S", scan, {std::nullopt});
  EXPECT_EQ(backend.stats().calls, 2u);  // expired exactly at the TTL
  EXPECT_EQ(store.stats().stale_drops, 1u);
  EXPECT_EQ(cached.cache_stats().stale_drops, 1u);
  // The refetch re-armed the entry with a fresh TTL.
  cached.FetchOrDie("S", scan, {std::nullopt});
  EXPECT_EQ(backend.stats().calls, 2u);
}

TEST_F(SharedCacheTest, ExpiryBoundaryIsTheSameOnEveryReadPath) {
  // Satellite regression: `now == expire_at` must read as stale on BOTH
  // lookup paths — TryAcquire and the post-flight index read inside
  // WaitForFlight — with every stale drop landing in the ledger exactly
  // once. A TTL of T serves reads at now+0 .. now+T-1.
  SimulatedClock clock;
  SharedCacheStore::Options options;
  options.default_ttl_micros = 1000;
  options.clock = &clock;
  SharedCacheStore store(options);

  store.Publish("k", "R", Rows());
  clock.Advance(999);
  SharedCacheStore::Lookup fresh = store.TryAcquire("k", "R");
  EXPECT_EQ(fresh.state, SharedCacheStore::LookupState::kHit);
  EXPECT_FALSE(fresh.stale_drop);
  clock.Advance(1);  // now == expire_at exactly
  SharedCacheStore::Lookup stale = store.TryAcquire("k", "R");
  EXPECT_EQ(stale.state, SharedCacheStore::LookupState::kLeader);
  EXPECT_TRUE(stale.stale_drop);
  EXPECT_EQ(store.stats().stale_drops, 1u);
  store.Abandon("k");

  // Same boundary through WaitForFlight's entry read: a published result
  // that expires before a late waiter gets to it must not be served.
  store.Publish("k2", "R", Rows());
  clock.Advance(999);
  EXPECT_NE(store.WaitForFlight("k2"), nullptr);  // TTL - 1: still fresh
  clock.Advance(1);  // now == expire_at exactly
  EXPECT_EQ(store.WaitForFlight("k2"), nullptr);
  EXPECT_EQ(store.stats().stale_drops, 2u);
  // The drop really evicted the entry, not just hid it.
  EXPECT_EQ(store.TryAcquire("k2", "R").state,
            SharedCacheStore::LookupState::kLeader);
  store.Abandon("k2");
}

TEST_F(SharedCacheTest, HugeTtlSaturatesInsteadOfWrapping) {
  // now + ttl beyond the uint64 range must clamp to "practically never",
  // not wrap around into the past or collide with the 0 = "never
  // expires" sentinel (which would make the entry immortal by accident —
  // or, wrapped low, instantly stale).
  SimulatedClock clock;
  SharedCacheStore::Options options;
  options.default_ttl_micros = std::numeric_limits<std::uint64_t>::max();
  options.clock = &clock;
  SharedCacheStore store(options);

  clock.Advance(5000);  // now != 0 so now + ttl overflows
  store.Publish("k", "R", Rows());
  clock.Advance(std::numeric_limits<std::uint64_t>::max() / 2);
  SharedCacheStore::Lookup lookup = store.TryAcquire("k", "R");
  EXPECT_EQ(lookup.state, SharedCacheStore::LookupState::kHit);
  EXPECT_FALSE(lookup.stale_drop);
  EXPECT_EQ(store.stats().stale_drops, 0u);
}

TEST_F(SharedCacheTest, ZeroTtlMeansNeverExpiresAtAnyClockValue) {
  // ttl == 0 is the "never expires" sentinel; an entry published at a
  // huge `now` must not be mistaken for one whose expiry wrapped to 0.
  SimulatedClock clock;
  SharedCacheStore::Options options;
  options.clock = &clock;
  SharedCacheStore store(options);  // default TTL 0

  clock.Advance(std::numeric_limits<std::uint64_t>::max() - 10);
  store.Publish("k", "R", Rows());
  clock.Advance(5);
  EXPECT_EQ(store.TryAcquire("k", "R").state,
            SharedCacheStore::LookupState::kHit);
  EXPECT_NE(store.WaitForFlight("k"), nullptr);
  EXPECT_EQ(store.stats().stale_drops, 0u);
}

TEST_F(SharedCacheTest, InvalidateRelationDropsOnlyThatRelation) {
  DatabaseSource backend(&db_, &catalog_);
  SharedCacheStore store;
  CachingSource cached(&backend, store);
  cached.FetchOrDie("R", AccessPattern::MustParse("oo"),
                    {std::nullopt, std::nullopt});
  cached.FetchOrDie("S", AccessPattern::MustParse("o"), {std::nullopt});
  EXPECT_EQ(store.size(), 2u);

  store.InvalidateRelation("S");
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.stats().invalidated, 1u);
  cached.FetchOrDie("R", AccessPattern::MustParse("oo"),
                    {std::nullopt, std::nullopt});
  EXPECT_EQ(backend.stats().calls, 2u);  // R survived
  cached.FetchOrDie("S", AccessPattern::MustParse("o"), {std::nullopt});
  EXPECT_EQ(backend.stats().calls, 3u);  // S refetched

  store.InvalidateAll();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.tuples(), 0u);
  cached.FetchOrDie("R", AccessPattern::MustParse("oo"),
                    {std::nullopt, std::nullopt});
  EXPECT_EQ(backend.stats().calls, 4u);
}

TEST_F(SharedCacheTest, ByteBudgetEvictsLru) {
  DatabaseSource backend(&db_, &catalog_);
  const AccessPattern keyed = AccessPattern::MustParse("io");
  const AccessPattern scan = AccessPattern::MustParse("oo");
  // Compute the exact resident cost of each entry the test will insert —
  // the budget is in bytes, so thresholds come from EntryCost rather
  // than platform-dependent literals.
  const Tuple ab = {Term::Constant("a"), Term::Constant("b")};
  const Tuple cd = {Term::Constant("c"), Term::Constant("d")};
  const std::size_t cost_a = SharedCacheStore::EntryCost(
      Key("R", "io", {Term::Constant("a"), std::nullopt}), "R", *Rows({ab}));
  const std::size_t cost_c = SharedCacheStore::EntryCost(
      Key("R", "io", {Term::Constant("c"), std::nullopt}), "R", *Rows({cd}));
  const std::size_t cost_scan = SharedCacheStore::EntryCost(
      Key("R", "oo", {std::nullopt, std::nullopt}), "R", *Rows({ab, cd}));

  SharedCacheStore::Options options;
  options.shards = 1;  // exact global LRU for a deterministic victim
  // Room for the "c" entry plus the scan, but not the "a" entry too.
  options.budget_bytes = cost_c + cost_scan;
  SharedCacheStore store(options);
  CachingSource cached(&backend, store);

  cached.FetchOrDie("R", keyed, {Term::Constant("a"), std::nullopt});
  cached.FetchOrDie("R", keyed, {Term::Constant("c"), std::nullopt});
  EXPECT_EQ(store.bytes(), cost_a + cost_c);
  // The 2-tuple scan overflows the budget: the LRU entry ("a") goes.
  cached.FetchOrDie("R", scan, {std::nullopt, std::nullopt});
  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_EQ(store.bytes(), cost_c + cost_scan);
  cached.FetchOrDie("R", keyed, {Term::Constant("c"), std::nullopt});
  EXPECT_EQ(backend.stats().calls, 3u);  // "c" still cached
  cached.FetchOrDie("R", keyed, {Term::Constant("a"), std::nullopt});
  EXPECT_EQ(backend.stats().calls, 4u);  // "a" was the victim
}

TEST_F(SharedCacheTest, EmptyResultsStillPayTheirFootprint) {
  // The old tuple ledger charged an empty (negative) result one flat
  // tuple — the byte ledger charges its real bookkeeping footprint, so
  // negative entries can no longer ride for (nearly) free.
  SharedCacheStore store;
  store.Publish("k", "R", Rows());
  EXPECT_GT(store.bytes(), 0u);
  EXPECT_EQ(store.bytes(), SharedCacheStore::EntryCost("k", "R", *Rows()));
  // Entries hold ids, so more rows or a higher arity cost more under the
  // same key, while rows of one shape cost the same whatever they spell.
  const Tuple narrow = {Term::Constant("x")};
  const Tuple other = {Term::Constant("a-much-longer-constant-value")};
  const Tuple wide = {Term::Constant("x"), Term::Constant("second"),
                      Term::Constant("third")};
  auto cost = [](const std::vector<Tuple>& tuples) {
    return SharedCacheStore::EntryCost("k", "R", *Rows(tuples));
  };
  EXPECT_GT(cost({narrow, other}), cost({narrow}));
  EXPECT_GT(cost({wide}), cost({narrow}));
  EXPECT_EQ(cost({other}), cost({narrow}));
}

TEST_F(SharedCacheTest, OversizedResultIsKeptForItsOwnExecution) {
  // A result bigger than the whole budget must not evict itself — the
  // execution that fetched it still repeats the call.
  DatabaseSource backend(&db_, &catalog_);
  SharedCacheStore::Options options;
  options.shards = 1;
  options.budget_bytes = 1;
  SharedCacheStore store(options);
  CachingSource cached(&backend, store);
  const AccessPattern scan = AccessPattern::MustParse("oo");
  cached.FetchOrDie("R", scan, {std::nullopt, std::nullopt});  // 2 tuples
  cached.FetchOrDie("R", scan, {std::nullopt, std::nullopt});
  EXPECT_EQ(backend.stats().calls, 1u);
  EXPECT_EQ(store.size(), 1u);
}

TEST_F(SharedCacheTest, AbandonedFlightIsNotCached) {
  SharedCacheStore store;
  SharedCacheStore::Lookup first = store.TryAcquire("k", "R");
  EXPECT_EQ(first.state, SharedCacheStore::LookupState::kLeader);
  store.Abandon("k");
  // The failure was not published: the next lookup leads again.
  SharedCacheStore::Lookup second = store.TryAcquire("k", "R");
  EXPECT_EQ(second.state, SharedCacheStore::LookupState::kLeader);
  store.Publish("k", "R", Rows());
  SharedCacheStore::Lookup third = store.TryAcquire("k", "R");
  EXPECT_EQ(third.state, SharedCacheStore::LookupState::kHit);
  EXPECT_TRUE(third.rows->empty());  // empty results are cacheable
}

TEST_F(SharedCacheTest, StackWiringAndAnswerStar) {
  // RuntimeOptions.shared_cache builds the stack's cache as a view over
  // the external store; a second ANSWER* run over the same store is
  // fully warm with byte-identical answers.
  UnionQuery q = MustParseUnionQuery("Q(x) :- R(x, z), not S(z).");
  DatabaseSource backend(&db_, &catalog_);
  SharedCacheStore store;
  RuntimeOptions runtime;
  runtime.shared_cache = &store;
  EXPECT_TRUE(runtime.Enabled());

  SourceStack cold_stack(&backend, runtime);
  ASSERT_NE(cold_stack.cache(), nullptr);
  EXPECT_EQ(cold_stack.cache()->shared(), &store);
  AnswerStarReport cold = AnswerStar(q, catalog_, cold_stack.source());
  const std::uint64_t cold_calls = backend.stats().calls;
  ASSERT_TRUE(cold.ok);
  EXPECT_GT(cold_calls, 0u);

  SourceStack warm_stack(&backend, runtime);
  AnswerStarReport warm = AnswerStar(q, catalog_, warm_stack.source());
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(warm.under, cold.under);
  EXPECT_EQ(warm.over, cold.over);
  EXPECT_EQ(backend.stats().calls, cold_calls);  // zero new physical calls
  EXPECT_EQ(warm_stack.stats().cache_misses, 0u);
  EXPECT_GT(warm_stack.stats().cache_hits, 0u);
}

TEST_F(SharedCacheTest, MetricsExportsAreWellFormed) {
  DatabaseSource backend(&db_, &catalog_);
  SharedCacheStore store;
  CachingSource cached(&backend, store);
  cached.FetchOrDie("R", AccessPattern::MustParse("oo"),
                    {std::nullopt, std::nullopt});
  cached.FetchOrDie("R", AccessPattern::MustParse("oo"),
                    {std::nullopt, std::nullopt});
  const std::string text = store.ToText();
  EXPECT_NE(text.find("hits=1"), std::string::npos);
  EXPECT_NE(text.find("misses=1"), std::string::npos);
  EXPECT_NE(text.find("R:"), std::string::npos);
  const std::string json = store.ToJson();
  EXPECT_NE(json.find("\"totals\""), std::string::npos);
  EXPECT_NE(json.find("\"relations\""), std::string::npos);
  EXPECT_NE(json.find("\"R\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST_F(SharedCacheTest, AdaptiveModelPricesCachedHotRelationsNearZero) {
  // Feed the model a store where R is cached-hot; the latency term of R's
  // candidates scales by the miss rate, so its patterns price near zero.
  SharedCacheStore store;
  const std::string scan_key = Key("R", "oo", {std::nullopt, std::nullopt});
  store.Publish(scan_key, "R", Rows());
  // 1 miss, then 9 hits: 90% hit rate.
  (void)store.TryAcquire("probe", "R");
  store.Abandon("probe");
  for (int i = 0; i < 9; ++i) {
    (void)store.TryAcquire(scan_key, "R");
  }

  StatsCatalog stats;
  RelationStats observed;
  observed.calls = 10;
  observed.tuples = 10;
  observed.p50_latency_micros = 10000.0;
  stats.Record("R", observed);

  Literal lit = MustParseRule("Q(x) :- R(x, y).").body()[0];
  const AccessPattern scan = AccessPattern::MustParse("oo");
  BoundVariables bound;
  PlanContext context;

  AdaptiveCostModel uncached(&stats);
  AdaptiveCostOptions cache_aware_options;
  cache_aware_options.shared_cache = &store;
  AdaptiveCostModel cache_aware(&stats, {}, cache_aware_options);

  EXPECT_DOUBLE_EQ(uncached.MissRate("R"), 1.0);
  EXPECT_DOUBLE_EQ(cache_aware.MissRate("R"), 0.1);
  const double full = uncached.PatternCost(lit, scan, bound, context);
  const double warm = cache_aware.PatternCost(lit, scan, bound, context);
  EXPECT_LT(warm, full);
  // The latency term shrank 10x; the tuple term is unchanged.
  EXPECT_NEAR(full - warm, 9000.0, 1e-6);
}

TEST_F(SharedCacheTest, NegativeTtlSplitsEmptyFromPositiveResults) {
  // With a negative TTL configured, an empty result ages on its own
  // (shorter) clock while positive results keep the default TTL.
  DatabaseSource backend(&db_, &catalog_);
  SimulatedClock clock;
  SharedCacheStore::Options options;
  options.default_ttl_micros = 10000;
  options.negative_ttl_micros = 1000;
  options.clock = &clock;
  SharedCacheStore store(options);
  CachingSource cached(&backend, store);
  const AccessPattern keyed = AccessPattern::MustParse("io");

  // R("a", _) has answers; R("zzz", _) is empty — a negative claim.
  cached.FetchOrDie("R", keyed, {Term::Constant("a"), std::nullopt});
  cached.FetchOrDie("R", keyed, {Term::Constant("zzz"), std::nullopt});
  EXPECT_EQ(backend.stats().calls, 2u);

  clock.Advance(1000);  // past the negative TTL, inside the default
  cached.FetchOrDie("R", keyed, {Term::Constant("a"), std::nullopt});
  EXPECT_EQ(backend.stats().calls, 2u);  // positive entry still fresh
  cached.FetchOrDie("R", keyed, {Term::Constant("zzz"), std::nullopt});
  EXPECT_EQ(backend.stats().calls, 3u);  // negative entry re-fetched
  EXPECT_EQ(store.stats().stale_drops, 1u);
}

TEST_F(SharedCacheTest, NegativeTtlExpiryBoundaryMatchesTheTtlRule) {
  // Same `now == expire_at` boundary as every other TTL: a negative TTL
  // of T serves the empty result at now+0 .. now+T-1 and drops it at
  // now+T exactly.
  SimulatedClock clock;
  SharedCacheStore::Options options;
  options.default_ttl_micros = 10000;
  options.negative_ttl_micros = 1000;
  options.clock = &clock;
  SharedCacheStore store(options);

  store.Publish("neg", "R", Rows());
  clock.Advance(999);
  SharedCacheStore::Lookup fresh = store.TryAcquire("neg", "R");
  EXPECT_EQ(fresh.state, SharedCacheStore::LookupState::kHit);
  EXPECT_FALSE(fresh.stale_drop);
  clock.Advance(1);  // now == expire_at exactly
  SharedCacheStore::Lookup stale = store.TryAcquire("neg", "R");
  EXPECT_EQ(stale.state, SharedCacheStore::LookupState::kLeader);
  EXPECT_TRUE(stale.stale_drop);
  EXPECT_EQ(store.stats().stale_drops, 1u);
  store.Abandon("neg");
}

TEST_F(SharedCacheTest, NegativeTtlLeavesNonEmptyResultsOnTheDefaultTtl) {
  // The negative split ages only empty results; a non-empty result of
  // the same relation keeps the (longer) default TTL.
  SimulatedClock clock;
  SharedCacheStore::Options options;
  options.default_ttl_micros = 10000;
  options.negative_ttl_micros = 100;
  options.clock = &clock;
  SharedCacheStore store(options);

  store.Publish("neg", "R", Rows());
  store.Publish("pos", "R", Rows({{Term::Constant("a")}}));
  clock.Advance(100);
  EXPECT_EQ(store.TryAcquire("neg", "R").state,
            SharedCacheStore::LookupState::kLeader);  // negative: expired
  store.Abandon("neg");
  EXPECT_EQ(store.TryAcquire("pos", "R").state,
            SharedCacheStore::LookupState::kHit);  // positive: default TTL
}

TEST_F(SharedCacheTest, RestoreReArmsNegativeEntriesAgainstTheCurrentTtl) {
  // Snapshot restore of an empty (negative) result must re-arm against
  // the *restoring* store's negative TTL, not the TTL the exporter ran
  // with: a restart that shortens --negative-ttl would otherwise
  // resurrect long-lived "no answer" claims.
  SimulatedClock clock;
  SharedCacheStore::Options options;
  options.default_ttl_micros = 50000;
  options.negative_ttl_micros = 1000;
  options.clock = &clock;
  SharedCacheStore store(options);

  // Exported by a run with a *longer* negative TTL: 40000 left.
  SharedCacheStore::ExportedEntry negative;
  negative.key = "neg";
  negative.relation = "R";
  negative.ttl_remaining_micros = 40000;
  store.RestoreEntry(negative);

  // Exported by a run with *no* negative TTL at all: the 0 sentinel
  // ("never expires") must not survive restore for an empty result.
  SharedCacheStore::ExportedEntry immortal;
  immortal.key = "neg-immortal";
  immortal.relation = "R";
  immortal.ttl_remaining_micros = 0;
  store.RestoreEntry(immortal);

  // A positive entry with the same remainder keeps it untouched.
  SharedCacheStore::ExportedEntry positive;
  positive.key = "pos";
  positive.relation = "R";
  positive.tuples = {{Term::Constant("a")}};
  positive.ttl_remaining_micros = 40000;
  store.RestoreEntry(positive);

  clock.Advance(1000);  // past the current negative TTL
  EXPECT_EQ(store.TryAcquire("neg", "R").state,
            SharedCacheStore::LookupState::kLeader);
  store.Abandon("neg");
  EXPECT_EQ(store.TryAcquire("neg-immortal", "R").state,
            SharedCacheStore::LookupState::kLeader);
  store.Abandon("neg-immortal");
  EXPECT_EQ(store.TryAcquire("pos", "R").state,
            SharedCacheStore::LookupState::kHit);
}

TEST_F(SharedCacheTest, RestoreKeepsTheShorterNegativeRemainder) {
  // min rule: when the exported remainder is already shorter than the
  // current negative TTL (the TTL grew between runs), the remainder
  // stands — restore never *extends* a negative claim's life.
  SimulatedClock clock;
  SharedCacheStore::Options options;
  options.negative_ttl_micros = 10000;
  options.clock = &clock;
  SharedCacheStore store(options);

  SharedCacheStore::ExportedEntry negative;
  negative.key = "neg";
  negative.relation = "R";
  negative.ttl_remaining_micros = 500;
  store.RestoreEntry(negative);

  clock.Advance(499);
  EXPECT_EQ(store.TryAcquire("neg", "R").state,
            SharedCacheStore::LookupState::kHit);
  clock.Advance(1);  // the exported remainder, far inside the new TTL
  EXPECT_EQ(store.TryAcquire("neg", "R").state,
            SharedCacheStore::LookupState::kLeader);
  store.Abandon("neg");
}

TEST_F(SharedCacheTest, RestoreWithNegativeTtlDisabledKeepsExportedRemainder) {
  // The 0 = "no split" sentinel: with no negative TTL configured here,
  // the exported remainder stands — including 0 = never expires.
  SimulatedClock clock;
  SharedCacheStore::Options options;
  options.clock = &clock;
  SharedCacheStore store(options);

  SharedCacheStore::ExportedEntry negative;
  negative.key = "neg";
  negative.relation = "R";
  negative.ttl_remaining_micros = 0;
  store.RestoreEntry(negative);

  clock.Advance(1u << 30);
  EXPECT_EQ(store.TryAcquire("neg", "R").state,
            SharedCacheStore::LookupState::kHit);
}

}  // namespace
}  // namespace ucqn
