#include "runtime/caching_source.h"

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "eval/answer_star.h"
#include "eval/executor.h"
#include "eval/source_adapters.h"
#include "runtime/fault_injection.h"

namespace ucqn {
namespace {

class CachingSourceTest : public ::testing::Test {
 protected:
  CachingSourceTest() {
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

TEST_F(CachingSourceTest, DeduplicatesCalls) {
  DatabaseSource backend(&db_, &catalog_);
  CachingSource cached(&backend);
  const AccessPattern scan = AccessPattern::MustParse("oo");
  std::vector<Tuple> first =
      cached.FetchOrDie("R", scan, {std::nullopt, std::nullopt});
  std::vector<Tuple> second =
      cached.FetchOrDie("R", scan, {std::nullopt, std::nullopt});
  EXPECT_EQ(first, second);
  EXPECT_EQ(backend.stats().calls, 1u);
  EXPECT_EQ(cached.cache_stats().hits, 1u);
  EXPECT_EQ(cached.cache_stats().misses, 1u);
  EXPECT_EQ(cached.cache_stats().evictions, 0u);
}

TEST_F(CachingSourceTest, CacheKeyIncludesInputValues) {
  DatabaseSource backend(&db_, &catalog_);
  CachingSource cached(&backend);
  const AccessPattern keyed = AccessPattern::MustParse("io");
  cached.FetchOrDie("R", keyed, {Term::Constant("a"), std::nullopt});
  cached.FetchOrDie("R", keyed, {Term::Constant("c"), std::nullopt});
  EXPECT_EQ(backend.stats().calls, 2u);  // different keys
  cached.FetchOrDie("R", keyed, {Term::Constant("a"), std::nullopt});
  EXPECT_EQ(backend.stats().calls, 2u);  // hit
}

TEST_F(CachingSourceTest, OutputSlotValuesDoNotSplitTheCache) {
  DatabaseSource backend(&db_, &catalog_);
  CachingSource cached(&backend);
  const AccessPattern keyed = AccessPattern::MustParse("io");
  // The executor may pass bound values at output slots; the source ignores
  // them (footnote 4), so the cache must too.
  cached.FetchOrDie("R", keyed, {Term::Constant("a"), Term::Constant("b")});
  cached.FetchOrDie("R", keyed, {Term::Constant("a"), Term::Constant("x")});
  cached.FetchOrDie("R", keyed, {Term::Constant("a"), std::nullopt});
  EXPECT_EQ(backend.stats().calls, 1u);
  EXPECT_EQ(cached.cache_stats().hits, 2u);
}

TEST_F(CachingSourceTest, InvalidateDropsEntries) {
  DatabaseSource backend(&db_, &catalog_);
  CachingSource cached(&backend);
  const AccessPattern scan = AccessPattern::MustParse("o");
  cached.FetchOrDie("S", scan, {std::nullopt});
  EXPECT_EQ(cached.size(), 1u);
  cached.Invalidate();
  EXPECT_EQ(cached.size(), 0u);
  cached.FetchOrDie("S", scan, {std::nullopt});
  EXPECT_EQ(backend.stats().calls, 2u);
}

TEST_F(CachingSourceTest, InvalidateRelationIsSelective) {
  DatabaseSource backend(&db_, &catalog_);
  CachingSource cached(&backend);
  cached.FetchOrDie("R", AccessPattern::MustParse("oo"),
                    {std::nullopt, std::nullopt});
  cached.FetchOrDie("S", AccessPattern::MustParse("o"), {std::nullopt});
  EXPECT_EQ(cached.size(), 2u);
  // Only S's service changed; R's entry survives.
  cached.InvalidateRelation("S");
  EXPECT_EQ(cached.size(), 1u);
  cached.FetchOrDie("R", AccessPattern::MustParse("oo"),
                    {std::nullopt, std::nullopt});
  EXPECT_EQ(backend.stats().calls, 2u);  // R still a hit
  cached.FetchOrDie("S", AccessPattern::MustParse("o"), {std::nullopt});
  EXPECT_EQ(backend.stats().calls, 3u);  // S refetched
}

TEST_F(CachingSourceTest, LruEvictsLeastRecentlyUsed) {
  DatabaseSource backend(&db_, &catalog_);
  CachingSource cached(&backend, /*capacity=*/2);
  const AccessPattern keyed = AccessPattern::MustParse("io");
  cached.FetchOrDie("R", keyed, {Term::Constant("a"), std::nullopt});  // A
  cached.FetchOrDie("R", keyed, {Term::Constant("c"), std::nullopt});  // B
  // Touch A so B becomes the LRU entry.
  cached.FetchOrDie("R", keyed, {Term::Constant("a"), std::nullopt});
  // C evicts B.
  cached.FetchOrDie("R", keyed, {Term::Constant("x"), std::nullopt});
  EXPECT_EQ(cached.size(), 2u);
  EXPECT_EQ(cached.cache_stats().evictions, 1u);
  // A still cached; B gone.
  cached.FetchOrDie("R", keyed, {Term::Constant("a"), std::nullopt});
  EXPECT_EQ(backend.stats().calls, 3u);
  cached.FetchOrDie("R", keyed, {Term::Constant("c"), std::nullopt});
  EXPECT_EQ(backend.stats().calls, 4u);
}

TEST_F(CachingSourceTest, CapacityZeroIsUnbounded) {
  DatabaseSource backend(&db_, &catalog_);
  CachingSource cached(&backend, /*capacity=*/0);
  const AccessPattern keyed = AccessPattern::MustParse("io");
  for (int i = 0; i < 100; ++i) {
    cached.FetchOrDie("R", keyed,
                      {Term::Constant("k" + std::to_string(i)), std::nullopt});
  }
  EXPECT_EQ(cached.size(), 100u);
  EXPECT_EQ(cached.cache_stats().evictions, 0u);
}

TEST_F(CachingSourceTest, FailedCallsAreNotCached) {
  DatabaseSource backend(&db_, &catalog_);
  FaultPlan plan;
  plan.fail_first_calls = 1;
  FaultInjectingSource flaky(&backend, plan);
  CachingSource cached(&flaky);
  const AccessPattern scan = AccessPattern::MustParse("o");
  FetchResult failed = cached.Fetch("S", scan, {std::nullopt});
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(cached.size(), 0u);
  // The same call succeeds once the fault clears — a cached error would
  // have pinned the failure.
  FetchResult retried = cached.Fetch("S", scan, {std::nullopt});
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried.tuples.size(), 1u);
  EXPECT_EQ(cached.size(), 1u);
}

TEST_F(CachingSourceTest, CachedAnswerStarSavesBackendCalls) {
  // The exact disjunct and the padded one (B(w) cannot be called) both
  // scan R; the cache absorbs the repeats without changing the report.
  const Catalog catalog = Catalog::MustParse("R/2: oo io\nS/1: o\nB/1: i\n");
  UnionQuery q = MustParseUnionQuery(
      "Q(x) :- R(x, z), not S(z).\nQ(x) :- R(x, z), B(w).");
  DatabaseSource plain_backend(&db_, &catalog);
  AnswerStarReport plain = AnswerStar(q, catalog, &plain_backend);

  DatabaseSource cached_backend(&db_, &catalog);
  CachingSource cached(&cached_backend);
  AnswerStarReport with_cache = AnswerStar(q, catalog, &cached);

  EXPECT_EQ(plain.under, with_cache.under);
  EXPECT_EQ(plain.over, with_cache.over);
  EXPECT_LT(cached_backend.stats().calls, plain_backend.stats().calls);
}

TEST_F(CachingSourceTest, StacksOverComposite) {
  // Cache in front of a composite: the common deployment shape.
  DatabaseSource backend(&db_, &catalog_);
  CompositeSource mediator;
  mediator.Route("R", &backend);
  mediator.Route("S", &backend);
  CachingSource cached(&mediator);
  ExecutionResult a =
      Execute(MustParseRule("Q(x) :- R(x, z), not S(z)."), catalog_, &cached);
  ExecutionResult b =
      Execute(MustParseRule("Q(x) :- R(x, z), not S(z)."), catalog_, &cached);
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_EQ(a.tuples, b.tuples);
  EXPECT_GT(cached.cache_stats().hits, 0u);
}

}  // namespace
}  // namespace ucqn
