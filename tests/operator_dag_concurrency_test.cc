// Concurrent-disjunct behaviour of the operator-DAG executor (labelled
// `concurrency` + `operator`, so the tsan preset runs it): disjunct
// chains racing within one execution produce answers identical to the
// serial replay at every concurrency and morsel size, racing executions
// share one SharedCacheStore with exactly one physical call per distinct
// key, and a SimulatedClock charges overlapped rounds max-over-lanes —
// the simulated wall-clock win the bench measures.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "ast/parser.h"
#include "eval/executor.h"
#include "runtime/fault_injection.h"
#include "runtime/shared_cache.h"

namespace ucqn {
namespace {

ExecutionOptions DagOptions(std::size_t disjunct_concurrency) {
  ExecutionOptions options;
  options.batch = true;
  options.disjunct_concurrency = disjunct_concurrency;
  options.runtime.metering = true;  // force a stack
  return options;
}

// Three executable disjuncts with overlapping subgoals (all three probe
// S), so racing chains actually contend on the same cache keys.
class OperatorDagConcurrencyTest : public ::testing::Test {
 protected:
  OperatorDagConcurrencyTest() {
    catalog_ = Catalog::MustParse("A/2: oo\nB/2: oo\nT/2: io\nS/1: i\n");
    db_ = Database::MustParseFacts(R"(
      A("a1", "k1").
      A("a2", "k2").
      B("b1", "k1").
      B("b2", "k3").
      T("k1", "t1").
      T("k2", "t2").
      T("k3", "t3").
      S("k2").
    )");
    query_ = MustParseUnionQuery(R"(
      Q(x, w) :- A(x, z), T(z, w), not S(z).
      Q(x, w) :- B(x, z), T(z, w), not S(z).
      Q(x, w) :- A(x, z), T(z, w), S(z).
    )");
  }

  Catalog catalog_;
  Database db_;
  UnionQuery query_;
};

TEST_F(OperatorDagConcurrencyTest, RacingDisjunctsMatchTheSerialReplay) {
  // Serial replay first: disjunct_concurrency=1 drives each chain to
  // completion in disjunct order — the sequential-union oracle.
  DatabaseSource serial_backend(&db_, &catalog_);
  ExecutionResult serial =
      Execute(query_, catalog_, &serial_backend, DagOptions(1));
  ASSERT_TRUE(serial.ok) << serial.error;
  ASSERT_EQ(serial.tuples.size(), 4u);  // a1/b1->t1, b2->t3, a2->t2

  for (std::size_t concurrency :
       {std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
    SCOPED_TRACE("disjunct_concurrency=" + std::to_string(concurrency));
    DatabaseSource backend(&db_, &catalog_);
    ExecutionResult racing =
        Execute(query_, catalog_, &backend, DagOptions(concurrency));
    ASSERT_TRUE(racing.ok) << racing.error;
    // Concurrency only changes transport scheduling, never the answers.
    EXPECT_EQ(racing.tuples, serial.tuples);
    EXPECT_EQ(racing.runtime.disjuncts_executed, 3u);
  }
}

TEST_F(OperatorDagConcurrencyTest, MorselSplittingRacesStayIdentical) {
  DatabaseSource serial_backend(&db_, &catalog_);
  ExecutionResult serial =
      Execute(query_, catalog_, &serial_backend, DagOptions(1));
  ASSERT_TRUE(serial.ok) << serial.error;

  for (std::size_t morsel_rows : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("morsel_rows=" + std::to_string(morsel_rows));
    DatabaseSource backend(&db_, &catalog_);
    ExecutionOptions options = DagOptions(3);
    options.morsel_rows = morsel_rows;
    ExecutionResult split = Execute(query_, catalog_, &backend, options);
    ASSERT_TRUE(split.ok) << split.error;
    EXPECT_EQ(split.tuples, serial.tuples);
    // Single-row morsels genuinely split the two-row scan frontiers, so
    // strictly more morsels are staged; larger chunks never stage fewer.
    if (morsel_rows == 1) {
      EXPECT_GT(split.runtime.morsels, serial.runtime.morsels);
    } else {
      EXPECT_GE(split.runtime.morsels, serial.runtime.morsels);
    }
  }
}

TEST_F(OperatorDagConcurrencyTest, RacingDisjunctsShareOneCache) {
  // With a call cache on the stack, the three chains' overlapping probes
  // (every z flows into T and S) must coalesce identically whether the
  // chains run serially or race: same physical calls, same answers.
  std::uint64_t serial_calls = 0;
  std::set<Tuple> serial_tuples;
  for (std::size_t concurrency : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE("disjunct_concurrency=" + std::to_string(concurrency));
    DatabaseSource backend(&db_, &catalog_);
    ExecutionOptions options = DagOptions(concurrency);
    options.runtime.cache = true;
    ExecutionResult result = Execute(query_, catalog_, &backend, options);
    ASSERT_TRUE(result.ok) << result.error;
    if (concurrency == 1) {
      serial_calls = result.runtime.source_calls;
      serial_tuples = result.tuples;
    } else {
      EXPECT_EQ(result.tuples, serial_tuples);
      // Racing reorders who misses first, never how many distinct keys
      // exist: the cache serves the same coalesced call set.
      EXPECT_EQ(result.runtime.source_calls, serial_calls);
    }
  }
}

TEST_F(OperatorDagConcurrencyTest, ExecutionsRaceOneStoreExactly) {
  // Two threads, each executing the union with racing disjuncts through
  // its own stack over one process-wide SharedCacheStore. Answers match
  // the solo baseline (no torn tuples) and every distinct key reaches
  // the backend exactly once (single-flight + reuse) — the DAG driver
  // composes with the store's concurrency protocol unchanged.
  DatabaseSource baseline_backend(&db_, &catalog_);
  SharedCacheStore baseline_store;
  ExecutionOptions baseline_options = DagOptions(3);
  baseline_options.runtime.shared_cache = &baseline_store;
  ExecutionResult baseline =
      Execute(query_, catalog_, &baseline_backend, baseline_options);
  ASSERT_TRUE(baseline.ok) << baseline.error;
  const std::uint64_t distinct_keys = baseline_backend.stats().calls;

  DatabaseSource backend(&db_, &catalog_);
  SharedCacheStore store;
  ExecutionResult r1;
  ExecutionResult r2;
  std::thread t1([&] {
    ExecutionOptions options = DagOptions(3);
    options.runtime.shared_cache = &store;
    r1 = Execute(query_, catalog_, &backend, options);
  });
  std::thread t2([&] {
    ExecutionOptions options = DagOptions(3);
    options.runtime.shared_cache = &store;
    r2 = Execute(query_, catalog_, &backend, options);
  });
  t1.join();
  t2.join();

  ASSERT_TRUE(r1.ok) << r1.error;
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(r1.tuples, baseline.tuples);
  EXPECT_EQ(r2.tuples, baseline.tuples);
  EXPECT_EQ(backend.stats().calls, distinct_keys);
}

TEST_F(OperatorDagConcurrencyTest, OverlappedRoundsChargeMaxOverLanes) {
  // The wall-clock model: with per-call latency on a SimulatedClock,
  // racing disjuncts resolve each round inside one overlap bracket, so
  // the round costs its slowest lane instead of the sum of all lanes.
  // This is the ≥1.5× simulated improvement the bench records.
  FaultPlan plan;
  plan.latency_micros = 1000;

  std::uint64_t serial_elapsed = 0;
  std::set<Tuple> serial_tuples;
  for (std::size_t concurrency : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE("disjunct_concurrency=" + std::to_string(concurrency));
    SimulatedClock clock;
    DatabaseSource backend(&db_, &catalog_);
    FaultInjectingSource slow(&backend, plan, &clock);
    ExecutionOptions options = DagOptions(concurrency);
    options.runtime.clock = &clock;
    ExecutionResult result = Execute(query_, catalog_, &slow, options);
    ASSERT_TRUE(result.ok) << result.error;
    if (concurrency == 1) {
      serial_elapsed = clock.NowMicros();
      serial_tuples = result.tuples;
      EXPECT_GT(serial_elapsed, 0u);
    } else {
      EXPECT_EQ(result.tuples, serial_tuples);
      // Three chains overlapping ≈ 3×; require at least 2× so the pin
      // survives small schedule shifts without going flaky.
      EXPECT_LE(clock.NowMicros() * 2, serial_elapsed);
    }
  }
}

}  // namespace
}  // namespace ucqn
