// Inter-literal pipelining (RuntimeOptions::pipeline_depth, a scheduling
// policy of the operator DAG): answers and witness order must be
// byte-identical at every depth across every runtime layer combination,
// overlapping waves must shrink simulated wall-clock on a latency-bound
// chain, and the error/budget edges must fail as cleanly as the
// one-wave-at-a-time schedule.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ast/parser.h"
#include "eval/executor.h"
#include "runtime/fault_injection.h"
#include "runtime/source_stack.h"

namespace ucqn {
namespace {

class PipelineExecutorTest : public ::testing::Test {
 protected:
  PipelineExecutorTest() {
    catalog_ = Catalog::MustParse("R/2: oo io\nS/1: o\nT/2: oo io\n");
    db_ = Database::MustParseFacts(R"(
      R("a", "b").
      R("c", "d").
      R("e", "b").
      R("g", "h").
      T("b", "t1").
      T("d", "t2").
      T("h", "t3").
      S("b").
    )");
  }

  // The reference semantics: per-binding loop, no runtime layers.
  std::set<Tuple> ReferenceAnswers() {
    DatabaseSource backend(&db_, &catalog_);
    ExecutionOptions options;
    options.batch = false;
    ExecutionResult result = Execute(query_, catalog_, &backend, options);
    EXPECT_TRUE(result.ok) << result.error;
    return result.tuples;
  }

  // The witness sequence as an ordered string list — pipelining promises
  // not just the same answer *set* but the same derivation *order* as
  // depth 1 (its row queues are FIFO along a single chain).
  std::vector<std::string> BindingOrder(const ExecutionOptions& options) {
    DatabaseSource backend(&db_, &catalog_);
    BindingsResult result =
        ExecuteForBindings(query_, catalog_, &backend, options);
    EXPECT_TRUE(result.ok) << result.error;
    std::vector<std::string> order;
    order.reserve(result.bindings.size());
    for (const Substitution& binding : result.bindings) {
      order.push_back(binding.ToString());
    }
    return order;
  }

  Catalog catalog_;
  Database db_;
  ConjunctiveQuery query_ =
      MustParseRule("Q(x, w) :- R(x, z), T(z, w), not S(z).");
};

TEST_F(PipelineExecutorTest, AnswersMatchReferenceAtEveryDepthAndCombo) {
  const std::set<Tuple> expected = ReferenceAnswers();
  ASSERT_EQ(expected.size(), 2u);  // Q("c","t2"), Q("g","t3")

  // combo bits: 1 = cache, 2 = retry (+ injected failures), 4 = metering.
  for (std::size_t parallelism : {std::size_t{1}, std::size_t{4}}) {
    for (std::size_t pipeline_depth :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
      for (int combo = 0; combo < 8; ++combo) {
        const bool with_cache = (combo & 1) != 0;
        const bool with_retry = (combo & 2) != 0;
        SCOPED_TRACE("parallelism=" + std::to_string(parallelism) +
                     " depth=" + std::to_string(pipeline_depth) +
                     " combo=" + std::to_string(combo));

        DatabaseSource backend(&db_, &catalog_);
        FaultPlan faults;
        faults.latency_micros = 100;
        if (with_retry) faults.fail_first_per_key = 1;
        FaultInjectingSource flaky(&backend, faults);

        ExecutionOptions options;
        options.runtime.cache = with_cache;
        options.runtime.retry = with_retry;
        options.runtime.retry_policy.max_attempts = 3;
        options.runtime.metering = (combo & 4) != 0;
        options.runtime.parallelism = parallelism;
        options.runtime.pipeline_depth = pipeline_depth;
        ExecutionResult result = Execute(query_, catalog_, &flaky, options);
        ASSERT_TRUE(result.ok) << result.error;
        EXPECT_EQ(result.tuples, expected);
      }
    }
  }
}

TEST_F(PipelineExecutorTest, WitnessOrderIsIdenticalAtEveryDepth) {
  ExecutionOptions options;
  options.runtime.metering = true;  // force a stack so depth > 1 engages
  options.runtime.pipeline_depth = 1;
  const std::vector<std::string> reference = BindingOrder(options);
  ASSERT_FALSE(reference.empty());
  for (std::size_t pipeline_depth :
       {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    for (std::size_t parallelism : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("depth=" + std::to_string(pipeline_depth) +
                   " parallelism=" + std::to_string(parallelism));
      options.runtime.pipeline_depth = pipeline_depth;
      options.runtime.parallelism = parallelism;
      EXPECT_EQ(BindingOrder(options), reference);
    }
  }
}

TEST_F(PipelineExecutorTest, CacheLedgerMakesCallCountsDepthInvariant) {
  // Per-chunk dedup is narrower than per-wave dedup, so raw physical
  // calls may differ across depths — but with the cache on, repeats are
  // hits and the *physical* call count must match depth 1 exactly.
  std::uint64_t calls_at_depth_1 = 0;
  for (std::size_t pipeline_depth :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    DatabaseSource backend(&db_, &catalog_);
    ExecutionOptions options;
    options.runtime.cache = true;
    options.runtime.metering = true;
    options.runtime.pipeline_depth = pipeline_depth;
    ExecutionResult result = Execute(query_, catalog_, &backend, options);
    ASSERT_TRUE(result.ok) << result.error;
    if (pipeline_depth == 1) {
      calls_at_depth_1 = result.runtime.source_calls;
      EXPECT_EQ(calls_at_depth_1, 5u);  // 1 R scan + 3 T probes + 1 S scan
    } else {
      EXPECT_EQ(result.runtime.source_calls, calls_at_depth_1)
          << "depth=" << pipeline_depth;
    }
  }
}

TEST_F(PipelineExecutorTest, CountersReportRoundsAndOverlaps) {
  DatabaseSource backend(&db_, &catalog_);
  ExecutionOptions options;
  options.runtime.metering = true;

  options.runtime.pipeline_depth = 1;
  ExecutionResult sequential = Execute(query_, catalog_, &backend, options);
  ASSERT_TRUE(sequential.ok) << sequential.error;
  EXPECT_EQ(sequential.runtime.pipeline_rounds, 0u);
  EXPECT_EQ(sequential.runtime.pipeline_overlaps, 0u);

  options.runtime.pipeline_depth = 3;
  ExecutionResult pipelined = Execute(query_, catalog_, &backend, options);
  ASSERT_TRUE(pipelined.ok) << pipelined.error;
  EXPECT_GT(pipelined.runtime.pipeline_rounds, 0u);
  // chunk = parallelism = 1, and R alone yields 4 bindings: several
  // rounds must have had two stages' waves genuinely in flight.
  EXPECT_GT(pipelined.runtime.pipeline_overlaps, 0u);
  EXPECT_LE(pipelined.runtime.pipeline_overlaps,
            pipelined.runtime.pipeline_rounds);
}

TEST_F(PipelineExecutorTest, OverlappedWavesShrinkSimulatedWallClock) {
  // A latency-bound 3-literal chain: every call sleeps 500us on a shared
  // SimulatedClock. At depth 1 the stages serialize; at depth >= 2 the
  // overlap bracket charges concurrent lanes max-over-lanes, so virtual
  // wall-clock must drop by at least a third (the bench's stronger
  // >= 1.5x claim is measured in bench_runtime's BM_PipelinedChain).
  const Catalog chain_catalog =
      Catalog::MustParse("A/2: oo\nB/2: io\nC/2: io\n");
  const Database chain_db = Database::MustParseFacts(R"(
    A("a1", "b1").
    A("a2", "b2").
    A("a3", "b3").
    A("a4", "b4").
    B("b1", "c1").
    B("b2", "c2").
    B("b3", "c3").
    B("b4", "c4").
    C("c1", "d1").
    C("c2", "d2").
    C("c3", "d3").
    C("c4", "d4").
  )");
  const ConjunctiveQuery chain =
      MustParseRule("Q(x, v) :- A(x, y), B(y, z), C(z, v).");

  std::set<Tuple> answers_at_depth_1;
  std::uint64_t elapsed_at_depth_1 = 0;
  for (std::size_t pipeline_depth :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    SCOPED_TRACE("depth=" + std::to_string(pipeline_depth));
    SimulatedClock clock;
    DatabaseSource backend(&chain_db, &chain_catalog);
    FaultPlan faults;
    faults.latency_micros = 500;
    FaultInjectingSource slow(&backend, faults, &clock);

    ExecutionOptions options;
    options.runtime.metering = true;
    options.runtime.pipeline_depth = pipeline_depth;
    options.runtime.clock = &clock;
    ExecutionResult result = Execute(chain, chain_catalog, &slow, options);
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_EQ(result.tuples.size(), 4u);

    const std::uint64_t elapsed = clock.NowMicros();
    if (pipeline_depth == 1) {
      answers_at_depth_1 = result.tuples;
      elapsed_at_depth_1 = elapsed;
      // 9 sequential calls (1 A scan + 4 B probes + 4 C probes) at 500us.
      EXPECT_EQ(elapsed, 9u * 500u);
    } else {
      EXPECT_EQ(result.tuples, answers_at_depth_1);
      EXPECT_GT(result.runtime.pipeline_overlaps, 0u);
      // At least a third off: overlapped lanes cost max, not sum.
      EXPECT_LE(elapsed * 3, elapsed_at_depth_1 * 2)
          << elapsed << "us vs " << elapsed_at_depth_1 << "us sequential";
    }
  }
}

TEST_F(PipelineExecutorTest, BudgetFailureSurfacesThroughThePipeline) {
  for (std::size_t pipeline_depth : {std::size_t{2}, std::size_t{4}}) {
    DatabaseSource backend(&db_, &catalog_);
    ExecutionOptions options;
    options.runtime.budget.max_calls = 1;  // not enough for the join
    options.runtime.metering = true;
    options.runtime.pipeline_depth = pipeline_depth;
    ExecutionResult result = Execute(query_, catalog_, &backend, options);
    EXPECT_FALSE(result.ok) << "depth=" << pipeline_depth;
    EXPECT_TRUE(result.tuples.empty());
    EXPECT_NE(result.error.find("budget"), std::string::npos);
    EXPECT_LE(result.runtime.source_calls, 1u);
  }
}

TEST_F(PipelineExecutorTest, UnusablePatternFailsLazilyLikeDepthOne) {
  // B requires its first slot bound, and nothing binds it: depth 2 must
  // report the same no-usable-pattern failure as depth 1 — and only when
  // bindings actually reach the stage.
  const Catalog gap_catalog = Catalog::MustParse("A/2: oo\nB/2: io\n");
  const Database gap_db = Database::MustParseFacts(R"(A("x", "y").)");
  const ConjunctiveQuery gap =
      MustParseRule("Q(x, w) :- A(x, y), B(z, w).");  // z is never bound
  DatabaseSource backend(&gap_db, &gap_catalog);
  ExecutionOptions options;
  options.runtime.metering = true;
  options.runtime.pipeline_depth = 2;
  ExecutionResult result = Execute(gap, gap_catalog, &backend, options);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("no usable access pattern"), std::string::npos);
}

TEST_F(PipelineExecutorTest, MaxBindingsBoundsEachLiteralAtEveryDepth) {
  // R alone yields 4 bindings; a cap of 2 bounds each literal's
  // cumulative output, so R trips it at every depth — pipelining chunks
  // R's output but does not change what the cap measures.
  for (std::size_t pipeline_depth :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    SCOPED_TRACE("depth=" + std::to_string(pipeline_depth));
    DatabaseSource backend(&db_, &catalog_);
    ExecutionOptions options;
    options.max_bindings = 2;
    options.runtime.metering = true;
    options.runtime.pipeline_depth = pipeline_depth;
    ExecutionResult result = Execute(query_, catalog_, &backend, options);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.error,
              "execution exceeded max_bindings (2) at literal R(x, z)");
    EXPECT_TRUE(result.tuples.empty());
  }
}

TEST_F(PipelineExecutorTest, UnionSharesTheStackAndAccumulatesCounters) {
  const UnionQuery u = MustParseUnionQuery(
      "Q(x, w) :- R(x, z), T(z, w), not S(z).\n"
      "Q(x, w) :- R(x, z), T(z, w).");
  DatabaseSource backend(&db_, &catalog_);
  ExecutionOptions options;
  options.runtime.metering = true;
  options.runtime.pipeline_depth = 2;
  ExecutionResult result = Execute(u, catalog_, &backend, options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.tuples.size(), 4u);  // the 2nd disjunct adds b-rows
  // Both disjuncts pipelined; the counters are the union's totals.
  EXPECT_GT(result.runtime.pipeline_rounds, 0u);
  EXPECT_GT(result.runtime.pipeline_overlaps, 0u);
}

}  // namespace
}  // namespace ucqn
