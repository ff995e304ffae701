// Concurrency coverage for the daemon: many threads across many tenants
// hammering one QueryDaemon — answers must be byte-identical to serial
// runs no matter how sessions interleave on the shared cache store, stats
// catalog, and admission gate. Runs under the tsan gate via the
// `concurrency` label.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/daemon.h"

namespace ucqn {
namespace {

ServiceRequest QueryRequest(const std::string& id, const std::string& tenant,
                            const std::string& query) {
  ServiceRequest request;
  request.id = id;
  request.tenant = tenant;
  request.query = query;
  return request;
}

// The answer portion of a response as one canonical line — metrics and
// correlation fields stripped, so runs can be compared byte-for-byte.
std::string AnswerKey(const ServiceResponse& response) {
  ServiceResponse canonical;
  canonical.status = response.status;
  canonical.under = response.under;
  canonical.over = response.over;
  canonical.complete = response.complete;
  canonical.error = response.error;
  return canonical.ToJsonLine();
}

class DaemonConcurrencyTest : public ::testing::Test {
 protected:
  DaemonConcurrencyTest() {
    catalog_ = Catalog::MustParse("L/1: o\nB/2: io\nC/2: oo\n");
    db_ = Database::MustParseFacts(R"(
      L("a").
      L("b").
      L("c").
      B("a", "x").
      B("b", "y").
      B("c", "x").
      C("x", "1").
      C("y", "2").
    )");
    queries_ = {
        "Q(x) :- L(x).",
        "Q(x, y) :- L(x), B(x, y).",
        "Q(x, z) :- L(x), B(x, y), C(y, z).",
        "Q(x) :- L(x), not B(x, \"x\").",
    };
  }

  // The serial ground truth: each query once, one at a time, cold store.
  std::vector<std::string> SerialAnswers() {
    DatabaseSource backend(&db_, &catalog_);
    QueryDaemon daemon(&catalog_, &backend, {});
    std::vector<std::string> answers;
    for (const std::string& query : queries_) {
      answers.push_back(AnswerKey(daemon.Submit(QueryRequest("s", "t", query))));
    }
    return answers;
  }

  Catalog catalog_;
  Database db_;
  std::vector<std::string> queries_;
};

TEST_F(DaemonConcurrencyTest, ThreadsTimesTenantsMatchSerialAnswers) {
  const std::vector<std::string> expected = SerialAnswers();

  DatabaseSource backend(&db_, &catalog_);
  QueryDaemon::Options options;
  // A real admission bound, but a queue deep enough that nothing sheds —
  // this test is about answer identity under interleaving, not refusals.
  options.admission.max_in_flight = 4;
  options.admission.max_queued = 1024;
  QueryDaemon daemon(&catalog_, &backend, options);

  constexpr int kThreads = 8;
  constexpr int kRounds = 5;
  const std::vector<std::string> tenants = {"alice", "bob", "carol"};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t qi = 0; qi < queries_.size(); ++qi) {
          const std::string& tenant = tenants[(t + round) % tenants.size()];
          ServiceResponse response = daemon.Submit(
              QueryRequest("q", tenant, queries_[qi]));
          if (AnswerKey(response) != expected[qi]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  const std::uint64_t total = kThreads * kRounds * queries_.size();
  EXPECT_EQ(daemon.queries_served(), total);
  EXPECT_EQ(daemon.admission()->counters().admitted, total);
  EXPECT_EQ(daemon.admission()->counters().shed, 0u);
  // Every tenant's in-flight ledger drained back to zero.
  for (const auto& [tenant, counters] : daemon.tenants()->counters()) {
    EXPECT_EQ(counters.in_flight, 0u) << tenant;
    EXPECT_EQ(counters.admitted, counters.completed) << tenant;
  }
  // The shared store did its job: far fewer backend calls than a
  // cache-less world (which would pay the serial cost every time).
  EXPECT_LT(backend.stats().calls, total);
}

TEST_F(DaemonConcurrencyTest, SheddingUnderPressureNeverCorruptsAnswers) {
  const std::vector<std::string> expected = SerialAnswers();

  DatabaseSource backend(&db_, &catalog_);
  QueryDaemon::Options options;
  options.admission.max_in_flight = 1;
  options.admission.max_queued = 1;
  QueryDaemon daemon(&catalog_, &backend, options);

  constexpr int kThreads = 8;
  constexpr int kRounds = 10;
  std::atomic<int> served{0};
  std::atomic<int> shed{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const std::size_t qi = (t + round) % queries_.size();
        ServiceResponse response = daemon.Submit(
            QueryRequest("q", "tenant" + std::to_string(t), queries_[qi]));
        if (response.status == ServiceResponse::Status::kShed) {
          shed.fetch_add(1);
          continue;
        }
        served.fetch_add(1);
        // Whatever was admitted must still be exactly right.
        if (AnswerKey(response) != expected[qi]) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(served.load(), 0);
  EXPECT_EQ(static_cast<std::uint64_t>(served.load()),
            daemon.queries_served());
  EXPECT_EQ(static_cast<std::uint64_t>(shed.load()),
            daemon.admission()->counters().shed);
  EXPECT_EQ(daemon.admission()->counters().in_flight, 0u);
}

TEST_F(DaemonConcurrencyTest, AdaptiveModelStaysRaceFreeUnderLoad) {
  // The adaptive path copies the stats catalog per session while every
  // other session observes into it — the copy-under-lock discipline this
  // exercises is exactly what tsan checks here.
  DatabaseSource backend(&db_, &catalog_);
  QueryDaemon::Options options;
  options.adaptive_cost_model = true;
  QueryDaemon daemon(&catalog_, &backend, options);

  const std::vector<std::string> expected = SerialAnswers();
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 8; ++round) {
        for (std::size_t qi = 0; qi < queries_.size(); ++qi) {
          ServiceResponse response =
              daemon.Submit(QueryRequest("q", "t", queries_[qi]));
          if (AnswerKey(response) != expected[qi]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(DaemonConcurrencyTest, StandingMaintenanceRacesQueriesAndReads) {
  // One thread streams delta ops while the others run queries, register
  // standing queries and read them back: the database, the shared cache,
  // the standing map and every standing query's frontiers all move under
  // concurrent readers. Afterwards every standing query must equal a
  // fresh run on the final instance.
  Database db = db_;
  DatabaseSource backend(&db, &catalog_);
  QueryDaemon::Options options;
  options.admission.max_in_flight = 4;
  options.admission.max_queued = 1024;
  options.database = &db;
  QueryDaemon daemon(&catalog_, &backend, options);

  const auto c = [](const std::string& value) { return Term::Constant(value); };
  std::vector<ServiceRequest> deltas;
  for (int i = 0; i < 24; ++i) {
    const std::string n = "n" + std::to_string(i);
    const std::string prev = "n" + std::to_string(i - 2);
    ServiceRequest delta;
    delta.op = ServiceRequest::Op::kDelta;
    delta.id = "d" + std::to_string(i);
    delta.tenant = "writer";
    switch (i % 3) {
      case 0:
        delta.relation = "L";
        delta.insert_tuples = {{c(n)}};
        delta.delete_tuples = {{c(i % 2 == 0 ? "b" : prev)}};
        break;
      case 1:
        delta.relation = "B";
        delta.insert_tuples = {{c("n" + std::to_string(i - 1)), c("x")},
                               {c("b"), c(i % 2 == 0 ? "x" : "y")}};
        delta.delete_tuples = {{c("a"), c(i % 4 == 1 ? "x" : "z")}};
        break;
      default:
        delta.relation = "C";
        delta.insert_tuples = {{c("x"), c(n)}};
        delta.delete_tuples = {{c("y"), c("2")}};
        break;
    }
    deltas.push_back(std::move(delta));
  }

  constexpr int kReaders = 4;
  constexpr int kRounds = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (const ServiceRequest& delta : deltas) {
      if (daemon.Submit(delta).status != ServiceResponse::Status::kOk) {
        failures.fetch_add(1);
      }
    }
  });
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t qi = 0; qi < queries_.size(); ++qi) {
          const std::string id = "s" + std::to_string(t) + "_" +
                                 std::to_string(qi);
          ServiceRequest standing = QueryRequest(id, "reader", queries_[qi]);
          standing.standing = round % 2 == 0;
          ServiceRequest answers;
          answers.op = ServiceRequest::Op::kAnswers;
          answers.id = id;
          answers.tenant = "reader";
          for (const ServiceRequest& request : {standing, answers}) {
            if (daemon.Submit(request).status !=
                ServiceResponse::Status::kOk) {
              failures.fetch_add(1);
            }
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(daemon.standing_count(), kReaders * queries_.size());

  // The reference: a cold daemon over the final instance.
  DatabaseSource fresh_backend(&db, &catalog_);
  QueryDaemon fresh(&catalog_, &fresh_backend, {});
  for (int t = 0; t < kReaders; ++t) {
    for (std::size_t qi = 0; qi < queries_.size(); ++qi) {
      ServiceRequest answers;
      answers.op = ServiceRequest::Op::kAnswers;
      answers.id = "s" + std::to_string(t) + "_" + std::to_string(qi);
      answers.tenant = "reader";
      EXPECT_EQ(AnswerKey(daemon.Submit(answers)),
                AnswerKey(fresh.Submit(QueryRequest("f", "t", queries_[qi]))))
          << answers.id << ": " << queries_[qi];
    }
  }
}

}  // namespace
}  // namespace ucqn
