// QueryDaemon: the multi-tenant service core — sessions over the shared
// runtime, tenant quotas, admission shed/drain behavior under
// over-admission, snapshot spill/restore, and the warm-restart contract
// (a previously seen query costs zero physical source calls).

#include "server/daemon.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>

#include "server/snapshot.h"
#include "util/json.h"

namespace ucqn {
namespace {

// Wraps a source so every Fetch parks until the gate opens — the test's
// handle on "a session is in flight right now".
class GatedSource : public Source {
 public:
  explicit GatedSource(Source* inner) : inner_(inner) {}

  FetchResult Fetch(const std::string& relation, const AccessPattern& pattern,
                    const std::vector<std::optional<Term>>& inputs) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++entered_;
      cv_.notify_all();
      cv_.wait(lock, [&] { return open_; });
    }
    return inner_->Fetch(relation, pattern, inputs);
  }

  void WaitUntilEntered(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_ >= n; });
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  Source* inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool open_ = false;
};

ServiceRequest QueryRequest(const std::string& id, const std::string& tenant,
                            const std::string& query) {
  ServiceRequest request;
  request.id = id;
  request.tenant = tenant;
  request.query = query;
  return request;
}

class DaemonTest : public ::testing::Test {
 protected:
  DaemonTest() {
    catalog_ = Catalog::MustParse("L/1: o\nB/2: io\n");
    db_ = Database::MustParseFacts(R"(
      L("a").
      L("b").
      B("a", "x").
      B("b", "y").
    )");
  }

  Catalog catalog_;
  Database db_;
  const std::string join_query_ = "Q(x, y) :- L(x), B(x, y).";
};

TEST_F(DaemonTest, ServesQueriesOverOneSharedCache) {
  DatabaseSource backend(&db_, &catalog_);
  QueryDaemon daemon(&catalog_, &backend, {});

  ServiceResponse cold = daemon.Submit(QueryRequest("q1", "alice", join_query_));
  ASSERT_EQ(cold.status, ServiceResponse::Status::kOk) << cold.error;
  EXPECT_EQ(cold.under.size(), 2u);
  EXPECT_TRUE(cold.complete);
  EXPECT_GT(cold.physical_calls, 0u);

  // A different tenant repeats the query: every call hits the shared
  // store — the multi-tenant reuse the daemon exists for.
  const std::uint64_t backend_calls = backend.stats().calls;
  ServiceResponse warm = daemon.Submit(QueryRequest("q2", "bob", join_query_));
  ASSERT_EQ(warm.status, ServiceResponse::Status::kOk) << warm.error;
  EXPECT_EQ(warm.under, cold.under);
  EXPECT_EQ(warm.over, cold.over);
  EXPECT_EQ(backend.stats().calls, backend_calls);
  EXPECT_GT(warm.cache_hits, 0u);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(daemon.queries_served(), 2u);

  const std::string status = daemon.StatusJson();
  EXPECT_NE(status.find("\"queries_served\": 2"), std::string::npos);
  EXPECT_NE(status.find("\"alice\""), std::string::npos);
  EXPECT_NE(status.find("\"bob\""), std::string::npos);
}

TEST_F(DaemonTest, BadQueriesPoisonOnlyThemselves) {
  DatabaseSource backend(&db_, &catalog_);
  QueryDaemon daemon(&catalog_, &backend, {});

  ServiceResponse parse_error =
      daemon.Submit(QueryRequest("q1", "alice", "Q(x) :- L(x"));
  EXPECT_EQ(parse_error.status, ServiceResponse::Status::kError);
  EXPECT_NE(parse_error.error.find("query error"), std::string::npos);

  ServiceResponse schema_error =
      daemon.Submit(QueryRequest("q2", "alice", "Q(x) :- Missing(x)."));
  EXPECT_EQ(schema_error.status, ServiceResponse::Status::kError);
  EXPECT_NE(schema_error.error.find("schema mismatch"), std::string::npos);

  // A garbage line through the transport path is also just one error.
  const std::string bad = daemon.SubmitLine("not json at all");
  EXPECT_NE(bad.find("\"status\": \"error\""), std::string::npos);

  ServiceResponse ok = daemon.Submit(QueryRequest("q3", "alice", join_query_));
  EXPECT_EQ(ok.status, ServiceResponse::Status::kOk) << ok.error;
}

TEST_F(DaemonTest, TenantQuotaRefusesConcurrentOveruse) {
  DatabaseSource backend(&db_, &catalog_);
  GatedSource gated(&backend);
  QueryDaemon::Options options;
  options.default_quota.max_concurrent = 1;
  QueryDaemon daemon(&catalog_, &gated, options);

  std::thread busy([&] {
    ServiceResponse r = daemon.Submit(QueryRequest("q1", "alice", join_query_));
    EXPECT_EQ(r.status, ServiceResponse::Status::kOk) << r.error;
  });
  gated.WaitUntilEntered(1);

  // alice is at her cap; bob is not.
  ServiceResponse refused =
      daemon.Submit(QueryRequest("q2", "alice", join_query_));
  EXPECT_EQ(refused.status, ServiceResponse::Status::kQuotaRefused);

  gated.Open();
  busy.join();
  // With her slot back, alice is served again.
  ServiceResponse ok = daemon.Submit(QueryRequest("q3", "alice", join_query_));
  EXPECT_EQ(ok.status, ServiceResponse::Status::kOk) << ok.error;
}

TEST_F(DaemonTest, OverAdmissionShedsInsteadOfQueueingUnbounded) {
  DatabaseSource backend(&db_, &catalog_);
  GatedSource gated(&backend);
  QueryDaemon::Options options;
  options.admission.max_in_flight = 1;
  options.admission.max_queued = 0;
  QueryDaemon daemon(&catalog_, &gated, options);

  std::thread busy([&] {
    ServiceResponse r = daemon.Submit(QueryRequest("q1", "alice", join_query_));
    EXPECT_EQ(r.status, ServiceResponse::Status::kOk) << r.error;
  });
  gated.WaitUntilEntered(1);

  ServiceResponse shed = daemon.Submit(QueryRequest("q2", "bob", join_query_));
  EXPECT_EQ(shed.status, ServiceResponse::Status::kShed);
  EXPECT_EQ(daemon.admission()->counters().shed, 1u);
  // The shed request's tenant slot was released, not leaked.
  EXPECT_EQ(daemon.tenants()->counters()["bob"].in_flight, 0u);

  gated.Open();
  busy.join();
  ServiceResponse ok = daemon.Submit(QueryRequest("q3", "bob", join_query_));
  EXPECT_EQ(ok.status, ServiceResponse::Status::kOk) << ok.error;
}

TEST_F(DaemonTest, DrainFinishesInFlightAndRefusesNew) {
  DatabaseSource backend(&db_, &catalog_);
  GatedSource gated(&backend);
  QueryDaemon daemon(&catalog_, &gated, {});

  std::atomic<bool> in_flight_done{false};
  std::thread busy([&] {
    ServiceResponse r = daemon.Submit(QueryRequest("q1", "alice", join_query_));
    EXPECT_EQ(r.status, ServiceResponse::Status::kOk) << r.error;
    in_flight_done.store(true);
  });
  gated.WaitUntilEntered(1);

  std::atomic<bool> drained{false};
  std::thread drainer([&] {
    daemon.Drain();
    drained.store(true);
  });
  while (!daemon.admission()->draining()) std::this_thread::yield();

  // New arrivals are refused while the in-flight session runs on.
  ServiceResponse refused =
      daemon.Submit(QueryRequest("q2", "bob", join_query_));
  EXPECT_EQ(refused.status, ServiceResponse::Status::kDraining);
  EXPECT_FALSE(drained.load());

  gated.Open();
  busy.join();
  drainer.join();
  EXPECT_TRUE(in_flight_done.load());
  EXPECT_TRUE(drained.load());
}

TEST_F(DaemonTest, WarmRestartServesSeenQueriesWithZeroPhysicalCalls) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "ucqnd_warm_restart")
          .string();
  std::filesystem::remove_all(dir);
  QueryDaemon::Options options;
  options.snapshot_dir = dir;

  ServiceResponse cold;
  {
    DatabaseSource backend(&db_, &catalog_);
    QueryDaemon daemon(&catalog_, &backend, options);
    SnapshotLoadReport report;
    std::string error;
    ASSERT_TRUE(daemon.LoadSnapshots(&report, &error)) << error;
    EXPECT_FALSE(report.cache_loaded);  // first boot: nothing to load
    cold = daemon.Submit(QueryRequest("q1", "alice", join_query_));
    ASSERT_EQ(cold.status, ServiceResponse::Status::kOk) << cold.error;
    EXPECT_GT(cold.physical_calls, 0u);
    daemon.Drain();  // spills cache.json + stats.json
  }

  // A new process: fresh backend, fresh daemon, same snapshot dir. The
  // seen query is served entirely from the restored cache — the backend
  // is never called at all.
  DatabaseSource backend(&db_, &catalog_);
  QueryDaemon daemon(&catalog_, &backend, options);
  SnapshotLoadReport report;
  std::string error;
  ASSERT_TRUE(daemon.LoadSnapshots(&report, &error)) << error;
  EXPECT_TRUE(report.cache_loaded);
  EXPECT_TRUE(report.stats_loaded);
  EXPECT_GT(report.cache_entries, 0u);

  ServiceResponse warm = daemon.Submit(QueryRequest("w1", "bob", join_query_));
  ASSERT_EQ(warm.status, ServiceResponse::Status::kOk) << warm.error;
  EXPECT_EQ(warm.under, cold.under);
  EXPECT_EQ(warm.over, cold.over);
  EXPECT_EQ(warm.complete, cold.complete);
  EXPECT_EQ(warm.physical_calls, 0u);
  EXPECT_EQ(backend.stats().calls, 0u);
  std::filesystem::remove_all(dir);
}

TEST_F(DaemonTest, AdminOpsReportAndInvalidate) {
  DatabaseSource backend(&db_, &catalog_);
  QueryDaemon daemon(&catalog_, &backend, {});
  ASSERT_EQ(daemon.Submit(QueryRequest("q1", "alice", join_query_)).status,
            ServiceResponse::Status::kOk);
  EXPECT_GT(daemon.shared_cache()->size(), 0u);

  ServiceRequest stats;
  stats.op = ServiceRequest::Op::kStats;
  stats.id = "s1";
  ServiceResponse stats_response = daemon.Submit(stats);
  ASSERT_EQ(stats_response.status, ServiceResponse::Status::kOk);
  EXPECT_NE(stats_response.payload_json.find("\"queries_served\": 1"),
            std::string::npos);

  ServiceRequest invalidate;
  invalidate.op = ServiceRequest::Op::kInvalidate;
  ServiceResponse inv_response = daemon.Submit(invalidate);
  ASSERT_EQ(inv_response.status, ServiceResponse::Status::kOk);
  EXPECT_EQ(daemon.shared_cache()->size(), 0u);

  // Snapshot op without a configured dir is a per-request error, not a
  // crash — and not a daemon-wide failure.
  ServiceRequest snapshot;
  snapshot.op = ServiceRequest::Op::kSnapshot;
  ServiceResponse snap_response = daemon.Submit(snapshot);
  EXPECT_EQ(snap_response.status, ServiceResponse::Status::kError);
  EXPECT_EQ(daemon.Submit(QueryRequest("q2", "alice", join_query_)).status,
            ServiceResponse::Status::kOk);
}

TEST_F(DaemonTest, SnapshotPayloadQuotesTheDirectory) {
  // A directory name with a quote and a backslash must come back as one
  // JSON string, not break the response line.
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "snap\"dir\\x").string();
  std::filesystem::remove_all(dir);
  DatabaseSource backend(&db_, &catalog_);
  QueryDaemon::Options options;
  options.snapshot_dir = dir;
  QueryDaemon daemon(&catalog_, &backend, options);
  const std::string line = daemon.SubmitLine(R"({"op": "snapshot"})");
  std::string error;
  std::optional<ServiceResponse> response = ParseServiceResponse(line, &error);
  ASSERT_TRUE(response.has_value()) << error << "\nline: " << line;
  ASSERT_EQ(response->status, ServiceResponse::Status::kOk) << line;
  std::optional<JsonValue> payload = ParseJson(response->payload_json, &error);
  ASSERT_TRUE(payload.has_value()) << error;
  EXPECT_EQ(payload->GetString("snapshot_dir"), dir);
  std::filesystem::remove_all(dir);
}

TEST_F(DaemonTest, TenantCallBudgetCapsTheRequestAsk) {
  DatabaseSource backend(&db_, &catalog_);
  QueryDaemon::Options options;
  options.default_quota.max_calls_per_query = 1;
  QueryDaemon daemon(&catalog_, &backend, options);

  // The join needs 3 physical calls; a 1-call tenant budget stops it.
  ServiceRequest request = QueryRequest("q1", "alice", join_query_);
  request.max_calls = 100;  // the request cannot raise its tenant's cap
  ServiceResponse capped = daemon.Submit(request);
  EXPECT_EQ(capped.status, ServiceResponse::Status::kError);
  EXPECT_FALSE(capped.error.empty());
}

TEST_F(DaemonTest, InvalidateOpForgetsStatsSoThePlannerReprices) {
  // The staleness bugfix: `invalidate` used to clear the shared cache but
  // leave the StatsCatalog, so the adaptive planner kept pricing the
  // changed service with pre-update latencies and fanouts. Both ledgers
  // must drop together.
  DatabaseSource backend(&db_, &catalog_);
  QueryDaemon::Options options;
  options.adaptive_cost_model = true;
  QueryDaemon daemon(&catalog_, &backend, options);
  ASSERT_EQ(daemon.Submit(QueryRequest("q1", "alice", join_query_)).status,
            ServiceResponse::Status::kOk);
  {
    std::lock_guard<std::mutex> lock(*daemon.stats_mu());
    ASSERT_NE(daemon.stats()->Find("B"), nullptr);
    ASSERT_NE(daemon.stats()->Find("L"), nullptr);
  }

  ServiceRequest invalidate;
  invalidate.op = ServiceRequest::Op::kInvalidate;
  invalidate.relation = "B";
  ServiceResponse scoped = daemon.Submit(invalidate);
  ASSERT_EQ(scoped.status, ServiceResponse::Status::kOk);
  EXPECT_NE(scoped.payload_json.find("\"stats_dropped\": "),
            std::string::npos);
  {
    std::lock_guard<std::mutex> lock(*daemon.stats_mu());
    EXPECT_EQ(daemon.stats()->Find("B"), nullptr);  // re-priced from defaults
    EXPECT_NE(daemon.stats()->Find("L"), nullptr);  // untouched relation
  }

  // The next run re-observes B from scratch — fresh post-change stats.
  ASSERT_EQ(daemon.Submit(QueryRequest("q2", "alice", join_query_)).status,
            ServiceResponse::Status::kOk);
  {
    std::lock_guard<std::mutex> lock(*daemon.stats_mu());
    EXPECT_NE(daemon.stats()->Find("B"), nullptr);
  }

  // Relation-less invalidate forgets everything.
  invalidate.relation.clear();
  ASSERT_EQ(daemon.Submit(invalidate).status, ServiceResponse::Status::kOk);
  {
    std::lock_guard<std::mutex> lock(*daemon.stats_mu());
    EXPECT_TRUE(daemon.stats()->empty());
  }
}

TEST_F(DaemonTest, StandingQueriesAreMaintainedByDeltaOps) {
  Database db = db_;  // the daemon moves this instance under delta ops
  DatabaseSource backend(&db, &catalog_);
  QueryDaemon::Options options;
  options.database = &db;
  QueryDaemon daemon(&catalog_, &backend, options);

  ServiceRequest standing = QueryRequest("s1", "alice", join_query_);
  standing.standing = true;
  ServiceResponse registered = daemon.Submit(standing);
  ASSERT_EQ(registered.status, ServiceResponse::Status::kOk)
      << registered.error;
  EXPECT_EQ(daemon.standing_count(), 1u);

  ServiceRequest delta;
  delta.op = ServiceRequest::Op::kDelta;
  delta.tenant = "alice";
  delta.relation = "B";
  delta.insert_tuples = {{Term::Constant("a"), Term::Constant("x2")}};
  ServiceResponse applied = daemon.Submit(delta);
  ASSERT_EQ(applied.status, ServiceResponse::Status::kOk) << applied.error;
  EXPECT_NE(applied.payload_json.find("\"inserted\": 1"), std::string::npos);
  EXPECT_NE(applied.payload_json.find("\"standing_updated\": 1"),
            std::string::npos);
  EXPECT_TRUE(db.Contains("B", {Term::Constant("a"), Term::Constant("x2")}));

  ServiceRequest answers;
  answers.op = ServiceRequest::Op::kAnswers;
  answers.tenant = "alice";
  answers.id = "s1";
  ServiceResponse maintained = daemon.Submit(answers);
  ASSERT_EQ(maintained.status, ServiceResponse::Status::kOk)
      << maintained.error;
  EXPECT_EQ(maintained.under.size(), 3u);
  EXPECT_EQ(maintained.under.count(
                {Term::Constant("a"), Term::Constant("x2")}),
            1u);

  // Deleting a scan-side tuple kills its derivations.
  delta.insert_tuples.clear();
  delta.relation = "L";
  delta.delete_tuples = {{Term::Constant("a")}};
  ASSERT_EQ(daemon.Submit(delta).status, ServiceResponse::Status::kOk);
  maintained = daemon.Submit(answers);
  ASSERT_EQ(maintained.status, ServiceResponse::Status::kOk);
  EXPECT_EQ(maintained.under,
            std::set<Tuple>({{Term::Constant("b"), Term::Constant("y")}}));

  // A delta restating the current instance is a no-op: nothing effective,
  // no maintenance work.
  delta.delete_tuples = {{Term::Constant("zzz")}};
  ServiceResponse noop = daemon.Submit(delta);
  ASSERT_EQ(noop.status, ServiceResponse::Status::kOk);
  EXPECT_NE(noop.payload_json.find("\"inserted\": 0"), std::string::npos);
  EXPECT_NE(noop.payload_json.find("\"standing_updated\": 0"),
            std::string::npos);

  // Standing registrations are tenant-scoped.
  answers.tenant = "bob";
  ServiceResponse missing = daemon.Submit(answers);
  EXPECT_EQ(missing.status, ServiceResponse::Status::kError);
  EXPECT_NE(missing.error.find("no standing query"), std::string::npos);
}

TEST_F(DaemonTest, DeltaOpValidation) {
  // Without an attached mutable database, delta ops are refused.
  DatabaseSource backend(&db_, &catalog_);
  QueryDaemon detached(&catalog_, &backend, {});
  ServiceRequest delta;
  delta.op = ServiceRequest::Op::kDelta;
  delta.relation = "B";
  delta.insert_tuples = {{Term::Constant("a"), Term::Constant("x2")}};
  ServiceResponse refused = detached.Submit(delta);
  EXPECT_EQ(refused.status, ServiceResponse::Status::kError);
  EXPECT_NE(refused.error.find("no mutable database"), std::string::npos);

  Database db = db_;
  QueryDaemon::Options options;
  options.database = &db;
  QueryDaemon daemon(&catalog_, &backend, options);

  delta.relation = "Nope";
  ServiceResponse unknown = daemon.Submit(delta);
  EXPECT_EQ(unknown.status, ServiceResponse::Status::kError);
  EXPECT_NE(unknown.error.find("unknown relation"), std::string::npos);

  delta.relation = "B";
  delta.insert_tuples = {{Term::Constant("just-one")}};
  ServiceResponse arity = daemon.Submit(delta);
  EXPECT_EQ(arity.status, ServiceResponse::Status::kError);
  EXPECT_NE(arity.error.find("arity mismatch"), std::string::npos);
  // The database was never touched by the rejected batches.
  EXPECT_EQ(db.TotalTuples(), db_.TotalTuples());
}

}  // namespace
}  // namespace ucqn
