// Cross-execution behaviour of the SharedCacheStore under real threads
// (labelled `concurrency`, so the tsan preset runs it): the single-flight
// protocol coalesces concurrent misses onto one physical call, abandoned
// flights fall back cleanly instead of deadlocking or pinning failures,
// and two executions racing on one store produce byte-identical answers
// with no torn tuples and no duplicate transport calls.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ast/parser.h"
#include "eval/answer_star.h"
#include "eval/source.h"
#include "runtime/caching_source.h"
#include "runtime/shared_cache.h"
#include "runtime/source_stack.h"

namespace ucqn {
namespace {

// Spins (with 1ms naps) until `pred` holds; false after ~10s. Assertions
// on the result stay at the call site so a timeout aborts the test.
bool Await(const std::function<bool()>& pred) {
  for (int i = 0; i < 10000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

// Parks every Fetch on a gate until Open(), so a test can hold a
// single-flight leader mid-call while a follower registers. Optionally
// fails the first call that passes the gate (the abandon path).
class GatedSource : public Source {
 public:
  explicit GatedSource(Source* inner, bool fail_first = false)
      : inner_(inner), fail_first_(fail_first) {}

  FetchResult Fetch(
      const std::string& relation, const AccessPattern& pattern,
      const std::vector<std::optional<Term>>& inputs) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++arrivals_;
      cv_.wait(lock, [&] { return open_; });
    }
    if (fail_first_ && passed_.fetch_add(1) == 0) {
      return FetchResult::TransientError("injected leader failure");
    }
    return inner_->Fetch(relation, pattern, inputs);
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  int arrivals() {
    std::lock_guard<std::mutex> lock(mu_);
    return arrivals_;
  }

 private:
  Source* inner_;
  bool fail_first_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  int arrivals_ = 0;
  std::atomic<int> passed_{0};
};

class SharedCacheConcurrencyTest : public ::testing::Test {
 protected:
  SharedCacheConcurrencyTest() {
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

TEST_F(SharedCacheConcurrencyTest, ConcurrentMissesCoalesceToOneCall) {
  DatabaseSource backend(&db_, &catalog_);
  GatedSource gated(&backend);
  SharedCacheStore store;
  CachingSource view_a(&gated, store);
  CachingSource view_b(&gated, store);
  const AccessPattern scan = AccessPattern::MustParse("oo");

  std::vector<Tuple> got_a;
  std::thread leader([&] {
    got_a = view_a.FetchOrDie("R", scan, {std::nullopt, std::nullopt});
  });
  // The leader is now parked inside the transport, holding the flight.
  ASSERT_TRUE(Await([&] { return gated.arrivals() == 1; }));

  std::vector<Tuple> got_b;
  std::thread follower([&] {
    got_b = view_b.FetchOrDie("R", scan, {std::nullopt, std::nullopt});
  });
  // The follower has coalesced onto the flight (ledger-observable) and is
  // blocked in WaitForFlight — it never reached the transport.
  ASSERT_TRUE(Await([&] { return store.stats().flight_waits == 1; }));
  EXPECT_EQ(gated.arrivals(), 1);

  gated.Open();
  leader.join();
  follower.join();

  EXPECT_EQ(backend.stats().calls, 1u);  // one physical call for two queries
  EXPECT_EQ(got_a, got_b);
  EXPECT_EQ(got_a.size(), 2u);
  EXPECT_EQ(view_a.cache_stats().misses, 1u);
  EXPECT_EQ(view_b.cache_stats().misses, 0u);
  EXPECT_EQ(view_b.cache_stats().hits, 1u);
  EXPECT_EQ(view_b.cache_stats().flight_waits, 1u);
  const SharedCacheStore::Stats totals = store.stats();
  EXPECT_EQ(totals.misses, 1u);
  EXPECT_EQ(totals.hits, 1u);
  EXPECT_EQ(totals.inserts, 1u);
  EXPECT_EQ(totals.entries, 1u);
}

TEST_F(SharedCacheConcurrencyTest, FollowerSurvivesAnAbandonedFlight) {
  DatabaseSource backend(&db_, &catalog_);
  GatedSource gated(&backend, /*fail_first=*/true);
  SharedCacheStore store;
  CachingSource view_a(&gated, store);
  CachingSource view_b(&gated, store);
  const AccessPattern scan = AccessPattern::MustParse("o");

  FetchResult leader_result;
  std::thread leader(
      [&] { leader_result = view_a.Fetch("S", scan, {std::nullopt}); });
  ASSERT_TRUE(Await([&] { return gated.arrivals() == 1; }));

  FetchResult follower_result;
  std::thread follower(
      [&] { follower_result = view_b.Fetch("S", scan, {std::nullopt}); });
  ASSERT_TRUE(Await([&] { return store.stats().flight_waits == 1; }));

  gated.Open();
  leader.join();
  follower.join();

  // The leader's call failed and was abandoned — not cached, not pinned.
  EXPECT_FALSE(leader_result.ok());
  // The follower woke, found no result, and fetched for itself.
  ASSERT_TRUE(follower_result.ok());
  EXPECT_EQ(follower_result.tuples.size(), 1u);
  EXPECT_EQ(gated.arrivals(), 2);  // failed leader call + follower's own
  EXPECT_EQ(view_b.cache_stats().misses, 1u);
  EXPECT_EQ(store.size(), 1u);  // the follower's success was published
  // A third lookup is a plain hit.
  CachingSource view_c(&gated, store);
  view_c.FetchOrDie("S", scan, {std::nullopt});
  EXPECT_EQ(view_c.cache_stats().hits, 1u);
}

TEST_F(SharedCacheConcurrencyTest, ConcurrentQueriesShareOneStoreExactly) {
  // The tentpole scenario: two overlapping queries run concurrently, each
  // through its own SourceStack, over one process-wide store. Answers
  // must match the sequential baseline (no torn tuples) and the backend
  // must see exactly one call per distinct key (single-flight + reuse).
  const UnionQuery q1 = MustParseUnionQuery("Q(x) :- R(x, z), not S(z).");
  const UnionQuery q2 = MustParseUnionQuery("P(x) :- R(x, z), S(z).");
  RuntimeOptions runtime;

  // Sequential baseline over a fresh store: its physical-call total is the
  // number of distinct keys the two queries touch.
  DatabaseSource baseline_backend(&db_, &catalog_);
  SharedCacheStore baseline_store;
  runtime.shared_cache = &baseline_store;
  SourceStack baseline_s1(&baseline_backend, runtime);
  const AnswerStarReport base1 = AnswerStar(q1, catalog_, baseline_s1.source());
  SourceStack baseline_s2(&baseline_backend, runtime);
  const AnswerStarReport base2 = AnswerStar(q2, catalog_, baseline_s2.source());
  ASSERT_TRUE(base1.ok && base2.ok);
  const std::uint64_t distinct_keys = baseline_backend.stats().calls;

  DatabaseSource backend(&db_, &catalog_);
  SharedCacheStore store;
  runtime.shared_cache = &store;
  AnswerStarReport report1;
  AnswerStarReport report2;
  std::thread t1([&] {
    SourceStack stack(&backend, runtime);
    report1 = AnswerStar(q1, catalog_, stack.source());
  });
  std::thread t2([&] {
    SourceStack stack(&backend, runtime);
    report2 = AnswerStar(q2, catalog_, stack.source());
  });
  t1.join();
  t2.join();

  ASSERT_TRUE(report1.ok && report2.ok);
  EXPECT_EQ(report1.under, base1.under);
  EXPECT_EQ(report1.over, base1.over);
  EXPECT_EQ(report2.under, base2.under);
  EXPECT_EQ(report2.over, base2.over);
  EXPECT_EQ(backend.stats().calls, distinct_keys);
  const SharedCacheStore::Stats totals = store.stats();
  EXPECT_EQ(totals.misses, distinct_keys);
  EXPECT_EQ(totals.entries, distinct_keys);
}

TEST_F(SharedCacheConcurrencyTest, ConcurrentBatchesShareLeaders) {
  // Two executions issue the same wave concurrently through FetchBatch.
  // Each thread publishes its own leaders before waiting on keys led by
  // the other (the cross-wave deadlock-avoidance ordering), so however the
  // leaderships interleave, every key reaches the transport exactly once.
  Catalog catalog = Catalog::MustParse("K/2: io\n");
  std::string facts;
  for (int i = 0; i < 10; ++i) {
    const std::string n = std::to_string(i);
    facts += "K(\"k" + n + "\", \"v" + n + "\").\n";
  }
  Database db = Database::MustParseFacts(facts);
  DatabaseSource backend(&db, &catalog);
  SharedCacheStore store;
  const AccessPattern keyed = AccessPattern::MustParse("io");
  std::vector<std::vector<std::optional<Term>>> wave;
  for (int i = 0; i < 10; ++i) {
    wave.push_back({Term::Constant("k" + std::to_string(i)), std::nullopt});
  }

  std::atomic<int> bad_results{0};
  auto run = [&] {
    CachingSource view(&backend, store);
    const std::vector<FetchResult> results =
        view.FetchBatch("K", keyed, wave);
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok() || results[i].tuples.size() != 1) ++bad_results;
    }
  };
  std::thread t1(run);
  std::thread t2(run);
  t1.join();
  t2.join();

  EXPECT_EQ(bad_results.load(), 0);
  EXPECT_EQ(backend.stats().calls, 10u);
  EXPECT_EQ(store.size(), 10u);
}

TEST_F(SharedCacheConcurrencyTest, HammerOverlappingKeysNoTornTuples) {
  // Four threads cycle through an overlapping key set, each starting at a
  // different offset. Every fetched result must equal the backend's
  // ground truth (a torn or cross-wired entry would differ), and every
  // distinct key must hit the transport exactly once process-wide.
  Catalog catalog = Catalog::MustParse("K/2: io\n");
  std::string facts;
  for (int i = 0; i < 20; ++i) {
    const std::string n = std::to_string(i);
    facts += "K(\"k" + n + "\", \"v" + n + "\").\n";
  }
  Database db = Database::MustParseFacts(facts);
  DatabaseSource backend(&db, &catalog);
  const AccessPattern keyed = AccessPattern::MustParse("io");

  std::vector<std::vector<Tuple>> expected;
  {
    DatabaseSource oracle(&db, &catalog);
    for (int i = 0; i < 20; ++i) {
      expected.push_back(oracle.FetchOrDie(
          "K", keyed, {Term::Constant("k" + std::to_string(i)), std::nullopt}));
    }
  }

  SharedCacheStore store;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      CachingSource view(&backend, store);
      for (int pass = 0; pass < 3; ++pass) {
        for (int i = 0; i < 20; ++i) {
          const int j = (i + 5 * t) % 20;
          const std::vector<Tuple> got = view.FetchOrDie(
              "K", keyed,
              {Term::Constant("k" + std::to_string(j)), std::nullopt});
          if (got != expected[j]) ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(backend.stats().calls, 20u);  // one physical call per key, ever
  const SharedCacheStore::Stats totals = store.stats();
  EXPECT_EQ(totals.hits + totals.misses, 4u * 3u * 20u);
  EXPECT_EQ(totals.entries, 20u);
}

TEST_F(SharedCacheConcurrencyTest, HitsRaceScopedInvalidation) {
  // Two executions hit one shared entry through the encoded call (a hit
  // hands out the entry's rows) while a third thread keeps dropping it
  // with InvalidateDelta on its relation. Every result must be the
  // ground truth — rows a reader holds outlive the entry's eviction —
  // and each view's ledger must count every request exactly once (the
  // store's may count more: a follower whose flight's entry was dropped
  // before it woke looks up again).
  DatabaseSource backend(&db_, &catalog_);
  SharedCacheStore store;
  const AccessPattern keyed = AccessPattern::MustParse("io");
  const std::vector<EncodedTuple> wave = {
      EncodeSignature(keyed, {Term::Constant("a"), std::nullopt})};
  const std::vector<Tuple> expected = {
      {Term::Constant("a"), Term::Constant("b")}};
  const std::vector<Tuple> changed = {
      {Term::Constant("a"), Term::Constant("zzz")}};
  {
    CachingSource warm(&backend, store);
    ASSERT_EQ(DecodeRows(*warm.FetchEncoded("R", keyed, wave, CallShape::kWave)[0].rows),
              expected);
  }

  constexpr int kLookups = 400;
  std::atomic<int> mismatches{0};
  std::atomic<bool> readers_done{false};
  std::vector<CachingSource::CacheStats> ledgers(2);
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      CachingSource view(&backend, store);
      for (int i = 0; i < kLookups; ++i) {
        const EncodedFetchResult result =
            view.FetchEncoded("R", keyed, wave, CallShape::kWave)[0];
        if (!result.ok() || DecodeRows(*result.rows) != expected) {
          ++mismatches;
        }
      }
      ledgers[t] = view.cache_stats();
    });
  }
  std::size_t dropped = 0;
  std::thread invalidator([&] {
    while (!readers_done.load()) {
      dropped += store.InvalidateDelta("R", changed);
      std::this_thread::yield();
    }
  });
  for (std::thread& reader : readers) reader.join();
  readers_done.store(true);
  invalidator.join();

  EXPECT_EQ(mismatches.load(), 0);
  for (const CachingSource::CacheStats& ledger : ledgers) {
    EXPECT_EQ(ledger.hits + ledger.misses, std::uint64_t{kLookups});
  }
  const SharedCacheStore::Stats totals = store.stats();
  EXPECT_GE(totals.hits + totals.misses, 1u + 2u * kLookups);
  EXPECT_EQ(totals.invalidated, dropped);
  // Every drop forced exactly one refetch (a miss that became a leader).
  EXPECT_EQ(backend.stats().calls, totals.misses);
  EXPECT_LE(totals.entries, 1u);
}

}  // namespace
}  // namespace ucqn
