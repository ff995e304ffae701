// Snapshot spill/restore of the process-wide runtime state: cache entries
// (tuples, nulls, remaining TTLs) and the stats catalog, through both the
// JSON layer and the file wrappers the daemon uses for warm restarts.

#include "server/snapshot.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "runtime/clock.h"

namespace ucqn {
namespace {

// `tuples` (all of one arity) as the encoded rows the store holds.
SharedRows Rows(const std::vector<Tuple>& tuples = {}) {
  return EncodeRows(tuples, tuples.empty() ? 0 : tuples.front().size());
}

TEST(CacheSnapshotTest, ExportSkipsExpiredAndKeepsRemainingTtl) {
  SimulatedClock clock;
  SharedCacheStore::Options options;
  options.default_ttl_micros = 1000;
  options.clock = &clock;
  SharedCacheStore store(options);

  store.Publish("keep", "R", Rows({{Term::Constant("a"), Term::Null()}}));
  clock.Advance(400);
  store.Publish("young", "R", Rows());

  std::vector<SharedCacheStore::ExportedEntry> entries = store.ExportEntries();
  ASSERT_EQ(entries.size(), 2u);
  std::map<std::string, SharedCacheStore::ExportedEntry> by_key;
  for (const auto& entry : entries) by_key[entry.key] = entry;
  // "keep": published at 0 with TTL 1000, exported at 400 → 600 left.
  EXPECT_EQ(by_key["keep"].ttl_remaining_micros, 600u);
  EXPECT_EQ(by_key["keep"].relation, "R");
  ASSERT_EQ(by_key["keep"].tuples.size(), 1u);
  EXPECT_TRUE(by_key["keep"].tuples[0][1].IsNull());
  EXPECT_EQ(by_key["young"].ttl_remaining_micros, 1000u);

  // At 1000 "keep" expires exactly now (TTL rule: stale at now ==
  // expire_at), "young" still has 400 left.
  clock.Advance(600);
  entries = store.ExportEntries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].key, "young");
}

TEST(CacheSnapshotTest, ExportKeepsTheNeverExpiresSentinel) {
  // With no TTL configured, 0 = never expires survives as the same
  // sentinel at any clock value.
  SimulatedClock clock;
  SharedCacheStore::Options options;
  options.clock = &clock;
  SharedCacheStore store(options);
  store.Publish("forever", "S", Rows({{Term::Constant("b")}}));
  clock.Advance(1000000);
  std::vector<SharedCacheStore::ExportedEntry> entries = store.ExportEntries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].ttl_remaining_micros, 0u);
}

TEST(CacheSnapshotTest, RestoreRestartsExpiryAtRestoreTime) {
  SimulatedClock clock;
  SharedCacheStore::Options options;
  options.clock = &clock;
  SharedCacheStore store(options);

  clock.Advance(5000);  // the restoring process is at an arbitrary epoch
  SharedCacheStore::ExportedEntry entry;
  entry.key = "k";
  entry.relation = "R";
  entry.tuples = {{Term::Constant("a")}};
  entry.ttl_remaining_micros = 300;
  store.RestoreEntry(entry);

  clock.Advance(299);
  EXPECT_EQ(store.TryAcquire("k", "R").state,
            SharedCacheStore::LookupState::kHit);
  clock.Advance(1);  // now == restored expiry exactly
  EXPECT_EQ(store.TryAcquire("k", "R").state,
            SharedCacheStore::LookupState::kLeader);
  store.Abandon("k");
}

TEST(CacheSnapshotTest, JsonRoundTripPreservesEntries) {
  SimulatedClock clock;
  SharedCacheStore::Options options;
  options.clock = &clock;
  SharedCacheStore store(options);
  store.Publish("k1", "R", Rows({{Term::Constant("a"), Term::Constant("b")}}));
  store.Publish("k2", "R", Rows());  // negative result
  store.Publish("k3", "S",
                Rows({{Term::Constant("needs \"escaping\""), Term::Null()}}));

  const std::string json = CacheSnapshotToJson(store);
  SharedCacheStore restored;
  std::string error;
  ASSERT_TRUE(RestoreCacheSnapshot(json, &restored, &error)) << error;
  EXPECT_EQ(restored.size(), 3u);

  SharedCacheStore::Lookup k1 = restored.TryAcquire("k1", "R");
  ASSERT_EQ(k1.state, SharedCacheStore::LookupState::kHit);
  const std::vector<Tuple> k1_tuples = DecodeRows(*k1.rows);
  ASSERT_EQ(k1_tuples.size(), 1u);
  EXPECT_EQ(k1_tuples[0][0], Term::Constant("a"));

  SharedCacheStore::Lookup k2 = restored.TryAcquire("k2", "R");
  ASSERT_EQ(k2.state, SharedCacheStore::LookupState::kHit);
  EXPECT_TRUE(k2.rows->empty());  // the cached claim "no answers" survives

  SharedCacheStore::Lookup k3 = restored.TryAcquire("k3", "S");
  ASSERT_EQ(k3.state, SharedCacheStore::LookupState::kHit);
  const std::vector<Tuple> k3_tuples = DecodeRows(*k3.rows);
  EXPECT_EQ(k3_tuples[0][0], Term::Constant("needs \"escaping\""));
  EXPECT_TRUE(k3_tuples[0][1].IsNull());
}

TEST(CacheSnapshotTest, RestoreRejectsMalformedSnapshots) {
  SharedCacheStore store;
  std::string error;
  EXPECT_FALSE(RestoreCacheSnapshot("not json", &store, &error));
  EXPECT_FALSE(RestoreCacheSnapshot("[]", &store, &error));
  EXPECT_FALSE(RestoreCacheSnapshot("{}", &store, &error));
  EXPECT_FALSE(RestoreCacheSnapshot(
      R"({"entries": [{"relation": "R", "tuples": []}]})", &store, &error));
  EXPECT_FALSE(RestoreCacheSnapshot(
      R"({"entries": [{"key": "k", "relation": "R", "tuples": [[1]]}]})",
      &store, &error));
  // A remaining TTL must be a count: 1e30 does not fit a uint64, and
  // negatives and fractions are refused.
  for (const char* ttl : {"1e30", "-1", "2.5", "\"300\""}) {
    error.clear();
    EXPECT_FALSE(RestoreCacheSnapshot(
        std::string(R"({"entries": [{"key": "k", "relation": "R", )") +
            R"("ttl_remaining_us": )" + ttl + R"(, "tuples": []}]})",
        &store, &error))
        << ttl;
    EXPECT_NE(error.find("ttl_remaining_us"), std::string::npos) << error;
  }
  EXPECT_EQ(store.size(), 0u);
}

TEST(CacheSnapshotTest, RestoreIsAllOrNothing) {
  // Two good entries, then a malformed third: the load fails with one
  // error line and the store keeps none of the three.
  const std::string good =
      R"({"pattern": "io", "inputs": ["a", null], "relation": "R", )"
      R"("ttl_remaining_us": 0, "tuples": [["a", "b"]]}, )"
      R"({"key": "k", "relation": "S", "ttl_remaining_us": 0, )"
      R"("tuples": [["c"]]}, )";
  for (const std::string& bad : {
           std::string(R"({"key": "k3", "relation": "R", )"
                       R"("ttl_remaining_us": 0, "tuples": [[1]]})"),
           std::string(R"({"pattern": "io", "inputs": ["a", null], )"
                       R"("relation": "R", "ttl_remaining_us": 0, )"
                       R"("tuples": [["a"]]})"),
           std::string(R"({"pattern": "io", "inputs": ["a"], )"
                       R"("relation": "R", "ttl_remaining_us": 0, )"
                       R"("tuples": []})")}) {
    SharedCacheStore store;
    std::string error;
    EXPECT_FALSE(RestoreCacheSnapshot(R"({"entries": [)" + good + bad + "]}",
                                      &store, &error))
        << bad;
    EXPECT_EQ(store.size(), 0u) << bad;
    EXPECT_EQ(store.stats().inserts, 0u) << bad;
    EXPECT_FALSE(error.empty()) << bad;
    EXPECT_EQ(error.find('\n'), std::string::npos) << error;
  }
}

TEST(CacheSnapshotTest, RestoreHonorsTheReceivingStoresBudget) {
  SharedCacheStore big;
  big.Publish("k1", "R", Rows({{Term::Constant("a")}, {Term::Constant("b")}}));
  big.Publish("k2", "R", Rows({{Term::Constant("c")}, {Term::Constant("d")}}));
  const std::string json = CacheSnapshotToJson(big);

  // A budget that fits exactly one of the two (cost-symmetric) entries.
  const std::size_t one_entry = SharedCacheStore::EntryCost(
      "k1", "R", *Rows({{Term::Constant("a")}, {Term::Constant("b")}}));
  SharedCacheStore::Options small_options;
  small_options.shards = 1;
  small_options.budget_bytes = one_entry;
  SharedCacheStore small(small_options);
  std::string error;
  ASSERT_TRUE(RestoreCacheSnapshot(json, &small, &error)) << error;
  // Restoring into a smaller store evicts from the cold end, exactly as
  // Publish would.
  EXPECT_EQ(small.size(), 1u);
  EXPECT_LE(small.bytes(), one_entry);
}

TEST(CacheSnapshotTest, FileRoundTripCarriesCacheAndStats) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "ucqn_snapshot_files")
          .string();
  std::filesystem::remove_all(dir);

  SharedCacheStore store;
  store.Publish("k", "R", Rows({{Term::Constant("a")}}));
  StatsCatalog stats;
  RelationStats observed;
  observed.calls = 7;
  observed.tuples = 21;
  stats.Record("R", "io", observed);

  std::string error;
  ASSERT_TRUE(SaveSnapshotFiles(dir, store, stats, &error)) << error;

  SharedCacheStore restored_store;
  StatsCatalog restored_stats;
  SnapshotLoadReport report;
  ASSERT_TRUE(LoadSnapshotFiles(dir, &restored_store, &restored_stats, &report,
                                &error))
      << error;
  EXPECT_TRUE(report.cache_loaded);
  EXPECT_TRUE(report.stats_loaded);
  EXPECT_EQ(report.cache_entries, 1u);
  EXPECT_EQ(restored_store.size(), 1u);
  const RelationStats* keyed = restored_stats.Find("R", "io");
  ASSERT_NE(keyed, nullptr);
  EXPECT_EQ(keyed->calls, 7u);
  // The keyed row folded into the pooled entry exactly once.
  const RelationStats* pooled = restored_stats.Find("R");
  ASSERT_NE(pooled, nullptr);
  EXPECT_EQ(pooled->calls, 7u);
  std::filesystem::remove_all(dir);
}

TEST(CacheSnapshotTest, LoadToleratesAFirstBoot) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "ucqn_snapshot_empty")
          .string();
  std::filesystem::remove_all(dir);
  SharedCacheStore store;
  StatsCatalog stats;
  SnapshotLoadReport report;
  std::string error;
  EXPECT_TRUE(LoadSnapshotFiles(dir, &store, &stats, &report, &error))
      << error;
  EXPECT_FALSE(report.cache_loaded);
  EXPECT_FALSE(report.stats_loaded);
  EXPECT_EQ(store.size(), 0u);
}

}  // namespace
}  // namespace ucqn
