#include "runtime/source_stack.h"

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "eval/answer_star.h"
#include "eval/executor.h"
#include "runtime/fault_injection.h"

namespace ucqn {
namespace {

class SourceStackTest : public ::testing::Test {
 protected:
  SourceStackTest() {
    catalog_ = Catalog::MustParse("R/2: oo io\nS/1: o\nT/2: oo\n");
    db_ = Database::MustParseFacts(R"(
      R("a", "b").
      R("c", "d").
      S("b").
      T("a", "b").
      T("c", "d").
    )");
  }

  Catalog catalog_;
  Database db_;
};

TEST_F(SourceStackTest, DisabledOptionsBuildNoLayers) {
  DatabaseSource backend(&db_, &catalog_);
  RuntimeOptions options;
  EXPECT_FALSE(options.Enabled());
  SourceStack stack(&backend, options);
  EXPECT_EQ(stack.source(), &backend);
  EXPECT_EQ(stack.cache(), nullptr);
  EXPECT_EQ(stack.retrier(), nullptr);
  EXPECT_EQ(stack.meter(), nullptr);
}

TEST_F(SourceStackTest, FullStackComposesBottomUp) {
  DatabaseSource backend(&db_, &catalog_);
  RuntimeOptions options;
  options.cache = true;
  options.retry = true;
  options.metering = true;
  SourceStack stack(&backend, options);
  ASSERT_NE(stack.cache(), nullptr);
  ASSERT_NE(stack.retrier(), nullptr);
  ASSERT_NE(stack.meter(), nullptr);
  EXPECT_EQ(stack.source(), stack.cache());

  // A repeated call: one physical attempt, one cache hit; the meter at the
  // bottom only sees the miss.
  stack.source()->FetchOrDie("S", AccessPattern::MustParse("o"),
                             {std::nullopt});
  stack.source()->FetchOrDie("S", AccessPattern::MustParse("o"),
                             {std::nullopt});
  EXPECT_EQ(stack.meter()->totals().calls, 1u);
  EXPECT_EQ(stack.cache()->cache_stats().hits, 1u);
  EXPECT_EQ(backend.stats().calls, 1u);

  RuntimeStats stats = stack.stats();
  EXPECT_EQ(stats.source_calls, 1u);
  EXPECT_EQ(stats.tuples_fetched, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_DOUBLE_EQ(stats.CacheHitRatio(), 0.5);
}

TEST_F(SourceStackTest, ExecutorReportsRuntimeStats) {
  DatabaseSource backend(&db_, &catalog_);
  ExecutionOptions options;
  options.runtime.cache = true;
  options.runtime.metering = true;
  // The plan probes S once per R binding with identical inputs after the
  // first, so the cache converts repeats into hits.
  ExecutionResult result = Execute(
      MustParseRule("Q(x) :- R(x, z), not S(z)."), catalog_, &backend,
      options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.runtime.source_calls, 0u);
  EXPECT_EQ(result.runtime.source_calls, backend.stats().calls);
  EXPECT_EQ(result.runtime.cache_misses, backend.stats().calls);
}

TEST_F(SourceStackTest, PlainExecuteLeavesRuntimeStatsZero) {
  DatabaseSource backend(&db_, &catalog_);
  ExecutionResult result =
      Execute(MustParseRule("Q(x) :- R(x, z)."), catalog_, &backend);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.runtime.source_calls, 0u);
  EXPECT_EQ(result.runtime.cache_misses, 0u);
}

TEST_F(SourceStackTest, CacheIsSharedAcrossUnionDisjuncts) {
  // Both disjuncts scan R; with a shared per-query stack the second
  // disjunct's scan is a hit.
  UnionQuery q = MustParseUnionQuery(R"(
    Q(x) :- R(x, z), not S(z).
    Q(x) :- R(x, z), T(x, z).
  )");
  DatabaseSource backend(&db_, &catalog_);
  ExecutionOptions options;
  options.runtime.cache = true;
  ExecutionResult result = Execute(q, catalog_, &backend, options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.runtime.cache_hits, 0u);

  DatabaseSource plain(&db_, &catalog_);
  ExecutionResult reference = Execute(q, catalog_, &plain);
  ASSERT_TRUE(reference.ok);
  EXPECT_EQ(result.tuples, reference.tuples);
  EXPECT_LT(backend.stats().calls, plain.stats().calls);
}

TEST_F(SourceStackTest, BudgetFailsTheQueryCleanly) {
  DatabaseSource backend(&db_, &catalog_);
  ExecutionOptions options;
  options.runtime.budget.max_calls = 1;  // not enough for the join
  ExecutionResult result = Execute(
      MustParseRule("Q(x) :- R(x, z), not S(z)."), catalog_, &backend,
      options);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.tuples.empty());
  EXPECT_NE(result.error.find("budget"), std::string::npos);
  EXPECT_GT(result.runtime.budget_refusals, 0u);
}

TEST_F(SourceStackTest, RetryOptionSurvivesInjectedFaults) {
  DatabaseSource backend(&db_, &catalog_);
  FaultPlan faults;
  faults.fail_first_per_key = 1;
  FaultInjectingSource flaky(&backend, faults);

  ExecutionOptions retry_options;
  retry_options.runtime.retry = true;
  retry_options.runtime.retry_policy.max_attempts = 3;
  ExecutionResult result = Execute(
      MustParseRule("Q(x) :- R(x, z), not S(z)."), catalog_, &flaky,
      retry_options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.runtime.retries, 0u);

  DatabaseSource plain(&db_, &catalog_);
  ExecutionResult reference = Execute(
      MustParseRule("Q(x) :- R(x, z), not S(z)."), catalog_, &plain);
  EXPECT_EQ(result.tuples, reference.tuples);
}

TEST_F(SourceStackTest, ExecuteForBindingsCarriesRuntimeStats) {
  DatabaseSource backend(&db_, &catalog_);
  ExecutionOptions options;
  options.runtime.cache = true;
  BindingsResult result = ExecuteForBindings(
      MustParseRule("Q(x) :- R(x, z), not S(z)."), catalog_, &backend,
      options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.runtime.cache_misses, 0u);
}

TEST_F(SourceStackTest, AnswerStarSharesTheStackAcrossPlans) {
  // The exact disjunct (Qᵘ) and the padded one (Qᵒ only: B(w) cannot be
  // called, so PLAN* keeps R(x, z) alone) both scan R.
  const Catalog catalog =
      Catalog::MustParse("R/2: oo io\nS/1: o\nB/1: i\n");
  UnionQuery q = MustParseUnionQuery(
      "Q(x) :- R(x, z), not S(z).\nQ(x) :- R(x, z), B(w).");
  DatabaseSource plain(&db_, &catalog);
  AnswerStarReport reference = AnswerStar(q, catalog, &plain);
  ASSERT_TRUE(reference.ok);

  DatabaseSource backend(&db_, &catalog);
  ExecutionOptions options;
  options.runtime.cache = true;
  AnswerStarReport cached = AnswerStar(q, catalog, &backend, options);
  ASSERT_TRUE(cached.ok) << cached.error;
  EXPECT_EQ(cached.under, reference.under);
  EXPECT_EQ(cached.over, reference.over);
  // One cache spans both drives: the second runs all of Qᵒ, so the exact
  // disjunct's R and S calls and the padded disjunct's R scan all hit.
  EXPECT_EQ(cached.runtime.cache_hits, 3u);
  EXPECT_LT(backend.stats().calls, plain.stats().calls);
}

TEST_F(SourceStackTest, AnswerStarReportsBudgetFailure) {
  UnionQuery q = MustParseUnionQuery("Q(x) :- R(x, z), not S(z).");
  DatabaseSource backend(&db_, &catalog_);
  ExecutionOptions options;
  options.runtime.budget.max_calls = 1;
  AnswerStarReport report = AnswerStar(q, catalog_, &backend, options);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("plan failed"), std::string::npos);
  EXPECT_NE(report.Summary().find("ANSWER* failed"), std::string::npos);
  EXPECT_TRUE(report.under.empty());
  EXPECT_TRUE(report.over.empty());
}

TEST_F(SourceStackTest, StatsToStringMentionsTheHeadlineNumbers) {
  DatabaseSource backend(&db_, &catalog_);
  ExecutionOptions options;
  options.runtime.cache = true;
  ExecutionResult result = Execute(
      MustParseRule("Q(x) :- R(x, z), not S(z)."), catalog_, &backend,
      options);
  ASSERT_TRUE(result.ok);
  const std::string text = result.runtime.ToString();
  EXPECT_NE(text.find("calls"), std::string::npos);
  EXPECT_NE(text.find("hit"), std::string::npos);
}

}  // namespace
}  // namespace ucqn
