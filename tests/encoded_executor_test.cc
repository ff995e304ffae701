// The dictionary-encoded executor against the per-binding reference loop
// (batch off): across the paper's worked examples (gen/scenarios.h,
// Examples 1-10) and the parallelism x pipeline-depth grid, the encoded
// columnar path must reproduce the reference witness order, answers and
// error messages. Byte-level ledgers are pinned by golden_executor_test.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ast/parser.h"
#include "eval/answer_star.h"
#include "eval/executor.h"
#include "feasibility/plan_star.h"
#include "gen/scenarios.h"

namespace ucqn {
namespace {

ExecutionOptions GridOptions(std::size_t parallelism,
                             std::size_t pipeline_depth) {
  ExecutionOptions options;
  options.batch = true;
  options.runtime.metering = true;  // force a stack so depth > 1 engages
  options.runtime.parallelism = parallelism;
  options.runtime.pipeline_depth = pipeline_depth;
  return options;
}

ExecutionOptions ReferenceOptions() {
  ExecutionOptions options;
  options.batch = false;
  return options;
}

std::vector<std::string> BindingStrings(const BindingsResult& result) {
  std::vector<std::string> order;
  order.reserve(result.bindings.size());
  for (const Substitution& binding : result.bindings) {
    order.push_back(binding.ToString());
  }
  return order;
}

TEST(EncodedExecutorTest, WitnessOrderMatchesTheReferenceAcrossTheGrid) {
  for (const Scenario& scenario : AllScenarios()) {
    const PlanStarResult plans = PlanStar(scenario.query, scenario.catalog);
    // Both estimate plans are executable by construction; every disjunct
    // must replay the reference loop's witness sequence exactly, not just
    // its set — including the Δ-null rows of Ex. 7.
    std::vector<ConjunctiveQuery> bodies;
    bodies.insert(bodies.end(), plans.under.disjuncts().begin(),
                  plans.under.disjuncts().end());
    bodies.insert(bodies.end(), plans.over.disjuncts().begin(),
                  plans.over.disjuncts().end());
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      DatabaseSource reference_backend(&scenario.database, &scenario.catalog);
      BindingsResult reference = ExecuteForBindings(
          bodies[i], scenario.catalog, &reference_backend, ReferenceOptions());
      for (std::size_t parallelism : {std::size_t{1}, std::size_t{4}}) {
        for (std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
          SCOPED_TRACE(scenario.name + " disjunct=" + std::to_string(i) +
                       " parallelism=" + std::to_string(parallelism) +
                       " depth=" + std::to_string(depth));
          DatabaseSource encoded_backend(&scenario.database,
                                         &scenario.catalog);
          BindingsResult encoded =
              ExecuteForBindings(bodies[i], scenario.catalog,
                                 &encoded_backend,
                                 GridOptions(parallelism, depth));
          ASSERT_EQ(encoded.ok, reference.ok) << encoded.error << " vs "
                                              << reference.error;
          if (!reference.ok) {
            EXPECT_EQ(encoded.error, reference.error);
            continue;
          }
          EXPECT_EQ(BindingStrings(encoded), BindingStrings(reference));
        }
      }
    }
  }
}

TEST(EncodedExecutorTest, AnswerStarBracketsMatchTheReferenceAcrossTheGrid) {
  // The full ANSWER* bracket against the per-binding reference semantics
  // — the paper's left-to-right reading directly — including the
  // null-padded overestimate rows (Ex. 7) that exercise the Δ-null
  // sentinel.
  for (const Scenario& scenario : AllScenarios()) {
    DatabaseSource reference_backend(&scenario.database, &scenario.catalog);
    AnswerStarReport reference =
        AnswerStar(scenario.query, scenario.catalog, &reference_backend,
                   ReferenceOptions());
    ASSERT_TRUE(reference.ok) << reference.error;
    for (std::size_t parallelism : {std::size_t{1}, std::size_t{4}}) {
      for (std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
        SCOPED_TRACE(scenario.name + " parallelism=" +
                     std::to_string(parallelism) +
                     " depth=" + std::to_string(depth));
        DatabaseSource encoded_backend(&scenario.database, &scenario.catalog);
        AnswerStarReport encoded =
            AnswerStar(scenario.query, scenario.catalog, &encoded_backend,
                       GridOptions(parallelism, depth));
        ASSERT_TRUE(encoded.ok) << encoded.error;
        EXPECT_EQ(encoded.under, reference.under);
        EXPECT_EQ(encoded.over, reference.over);
        EXPECT_EQ(encoded.delta, reference.delta);
        EXPECT_EQ(encoded.complete, reference.complete);
        EXPECT_EQ(encoded.delta_has_nulls, reference.delta_has_nulls);
        EXPECT_EQ(encoded.completeness_lower_bound,
                  reference.completeness_lower_bound);
        EXPECT_EQ(encoded.Summary(), reference.Summary());
      }
    }
  }
}

TEST(EncodedExecutorTest, ErrorMessagesMatchTheReference) {
  const Catalog catalog = Catalog::MustParse("R/2: oo\nT/2: io\n");
  const Database db = Database::MustParseFacts(R"(
    R("a", "b").
    R("c", "d").
    R("e", "f").
    T("b", "t1").
  )");
  const ConjunctiveQuery query = MustParseRule("Q(x, w) :- R(x, z), T(z, w).");

  // max_bindings trips at the same literal with the same message.
  for (bool batch : {false, true}) {
    SCOPED_TRACE(batch ? "encoded" : "reference");
    DatabaseSource backend(&db, &catalog);
    ExecutionOptions options = batch ? GridOptions(1, 1) : ReferenceOptions();
    options.max_bindings = 2;
    ExecutionResult result = Execute(query, catalog, &backend, options);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.error,
              "execution exceeded max_bindings (2) at literal R(x, z)");
  }

  // A literal with no usable pattern fails identically.
  const ConjunctiveQuery gap = MustParseRule("Q(x, w) :- T(z, w), R(x, z).");
  DatabaseSource reference_backend(&db, &catalog);
  ExecutionResult reference =
      Execute(gap, catalog, &reference_backend, ReferenceOptions());
  EXPECT_FALSE(reference.ok);
  EXPECT_NE(reference.error.find("no usable access pattern"),
            std::string::npos);
  DatabaseSource encoded_backend(&db, &catalog);
  ExecutionResult encoded =
      Execute(gap, catalog, &encoded_backend, GridOptions(1, 1));
  EXPECT_FALSE(encoded.ok);
  EXPECT_EQ(encoded.error, reference.error);
}

TEST(EncodedExecutorTest, SharedCacheLedgerIsPinned) {
  // With the cache on, hit/miss counts are part of the contract: the
  // packed id keys group calls by input values, so the three R rows'
  // two distinct z values cost two T calls.
  const Catalog catalog = Catalog::MustParse("R/2: oo io\nT/2: io\nS/1: o\n");
  const Database db = Database::MustParseFacts(R"(
    R("a", "b").
    R("c", "b").
    R("e", "d").
    T("b", "t1").
    T("d", "t2").
    S("d").
  )");
  const ConjunctiveQuery query =
      MustParseRule("Q(x, w) :- R(x, z), T(z, w), not S(z).");

  DatabaseSource backend(&db, &catalog);
  ExecutionOptions options = GridOptions(1, 1);
  options.runtime.cache = true;
  ExecutionResult result = Execute(query, catalog, &backend, options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.tuples.size(), 2u);  // Q("a","t1"), Q("c","t1")
  EXPECT_EQ(result.runtime.source_calls, 4u);
  EXPECT_EQ(result.runtime.cache_hits, 0u);
  EXPECT_EQ(result.runtime.cache_misses, 4u);
}

}  // namespace
}  // namespace ucqn
