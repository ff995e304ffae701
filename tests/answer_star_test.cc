#include "eval/answer_star.h"

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "eval/oracle.h"
#include "gen/scenarios.h"
#include "runtime/caching_source.h"
#include "runtime/clock.h"
#include "runtime/fault_injection.h"

namespace ucqn {
namespace {

AnswerStarReport RunScenario(const Scenario& s) {
  DatabaseSource source(&s.database, &s.catalog);
  return AnswerStar(s.query, s.catalog, &source);
}

TEST(AnswerStarTest, Example4CompleteDespiteInfeasibility) {
  Scenario s = Example4UnderOver();
  AnswerStarReport report = RunScenario(s);
  // S(b) holds, so R(x,z),¬S(z) yields nothing: Δ = ∅ and the answer is
  // complete although Q is infeasible.
  EXPECT_TRUE(report.complete);
  EXPECT_TRUE(report.delta.empty());
  EXPECT_EQ(report.under.size(), 2u);  // the two T tuples
  EXPECT_EQ(report.under, report.over);
  EXPECT_NE(report.Summary().find("answer is complete"), std::string::npos);
}

TEST(AnswerStarTest, Example6ForeignKeyForcesCompleteness) {
  Scenario s = Example6ForeignKey();
  AnswerStarReport report = RunScenario(s);
  EXPECT_TRUE(report.complete);
  // The underestimate equals the true answer.
  EXPECT_EQ(report.under, OracleEvaluate(s.query, s.database));
}

TEST(AnswerStarTest, Example7NullTupleInDelta) {
  Scenario s = Example7Nulls();
  AnswerStarReport report = RunScenario(s);
  EXPECT_FALSE(report.complete);
  EXPECT_TRUE(report.delta_has_nulls);
  // With nulls in Δ, no numeric completeness bound can be given.
  EXPECT_FALSE(report.completeness_lower_bound.has_value());
  ASSERT_EQ(report.delta.size(), 1u);
  EXPECT_EQ(*report.delta.begin(),
            (Tuple{Term::Constant("a"), Term::Null()}));
  EXPECT_NE(report.Summary().find("may be part of the answer"),
            std::string::npos);
}

TEST(AnswerStarTest, CompletenessRatioWithoutNulls) {
  // Craft a query whose overestimate adds null-free tuples: the
  // unanswerable literal is boolean (no new head variables).
  Catalog catalog = Catalog::MustParse("R/2: oo\nP/1: i\nT/2: oo\n");
  UnionQuery q = MustParseUnionQuery(R"(
    Q(x, y) :- R(x, y), P(x).
    Q(x, y) :- T(x, y).
  )");
  Database db = Database::MustParseFacts(R"(
    R("r1", "s1").
    P("r1").
    T("t1", "t2").
  )");
  DatabaseSource source(&db, &catalog);
  AnswerStarReport report = AnswerStar(q, catalog, &source);
  // P(x) is answerable?? P^i with x bound by R — yes; so plans coincide.
  EXPECT_TRUE(report.complete);

  // Now make P truly unanswerable by giving it an unbound variable.
  UnionQuery q2 = MustParseUnionQuery(R"(
    Q(x, y) :- R(x, y), P(w).
    Q(x, y) :- T(x, y).
  )");
  AnswerStarReport report2 = AnswerStar(q2, catalog, &source);
  EXPECT_FALSE(report2.complete);
  EXPECT_FALSE(report2.delta_has_nulls);
  ASSERT_TRUE(report2.completeness_lower_bound.has_value());
  // under = {t1 tuple}; over adds the R tuple: 1/2.
  EXPECT_DOUBLE_EQ(*report2.completeness_lower_bound, 0.5);
  EXPECT_NE(report2.Summary().find("at least"), std::string::npos);
}

TEST(AnswerStarTest, UnderestimateIsSound) {
  // Every tuple of ansᵤ must be a genuine answer (Qᵘ ⊑ Q pointwise).
  for (const Scenario& s : AllScenarios()) {
    AnswerStarReport report = RunScenario(s);
    std::set<Tuple> truth = OracleEvaluate(s.query, s.database);
    for (const Tuple& t : report.under) {
      EXPECT_TRUE(truth.count(t))
          << s.name << ": spurious underestimate tuple " << TupleToString(t);
    }
  }
}

TEST(AnswerStarTest, OverestimateCoversTruthModuloNulls) {
  // Every true answer must appear in ansₒ, possibly with nulls in the
  // columns the overestimate could not compute.
  for (const Scenario& s : AllScenarios()) {
    AnswerStarReport report = RunScenario(s);
    std::set<Tuple> truth = OracleEvaluate(s.query, s.database);
    for (const Tuple& t : truth) {
      bool covered = false;
      for (const Tuple& o : report.over) {
        if (o.size() != t.size()) continue;
        bool match = true;
        for (std::size_t j = 0; j < t.size(); ++j) {
          if (!o[j].IsNull() && o[j] != t[j]) {
            match = false;
            break;
          }
        }
        if (match) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << s.name << ": answer " << TupleToString(t)
                           << " missing from overestimate";
    }
  }
}

TEST(AnswerStarTest, FeasibleQueryAlwaysComplete) {
  Scenario s = Example1Books();
  AnswerStarReport report = RunScenario(s);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.under, OracleEvaluate(s.query, s.database));
}

TEST(AnswerStarTest, EmptyDatabaseIsCompleteAndEmpty) {
  Scenario s = Example4UnderOver();
  Database empty;
  DatabaseSource source(&empty, &s.catalog);
  AnswerStarReport report = AnswerStar(s.query, s.catalog, &source);
  EXPECT_TRUE(report.complete);
  EXPECT_TRUE(report.under.empty());
}

TEST(AnswerStarTest, RunsAnExactDisjunctOnce) {
  // PLAN* puts this feasible query into both Qᵘ and Qᵒ; without a cache
  // ANSWER* still makes only the one R scan and the two S probes.
  Catalog catalog = Catalog::MustParse("R/2: oo\nS/2: io\n");
  UnionQuery q = MustParseUnionQuery("Q(x, z) :- R(x, y), S(y, z).");
  Database db = Database::MustParseFacts(R"(
    R("a", "b").
    R("c", "d").
    S("b", "e").
  )");
  DatabaseSource source(&db, &catalog);
  AnswerStarReport report = AnswerStar(q, catalog, &source);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.under, OracleEvaluate(q, db));
  EXPECT_EQ(source.stats().calls, 3u);
  EXPECT_EQ(report.runtime.disjuncts_executed, 1u);
}

TEST(AnswerStarTest, BehindACacheRunsAllOfTheOverestimate) {
  // Behind a cache the second drive runs Qᵒ in full, as evaluating Qᵘ and
  // Qᵒ separately would: the exact disjunct's repeat is three cache hits,
  // whether the cache comes from options.runtime or from the caller.
  Catalog catalog = Catalog::MustParse("R/2: oo\nS/2: io\n");
  UnionQuery q = MustParseUnionQuery("Q(x, z) :- R(x, y), S(y, z).");
  Database db = Database::MustParseFacts(R"(
    R("a", "b").
    R("c", "d").
    S("b", "e").
  )");
  DatabaseSource backend(&db, &catalog);
  ExecutionOptions options;
  options.runtime.cache = true;
  AnswerStarReport report = AnswerStar(q, catalog, &backend, options);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.under, OracleEvaluate(q, db));
  EXPECT_EQ(report.over, report.under);
  EXPECT_EQ(backend.stats().calls, 3u);
  EXPECT_EQ(report.runtime.disjuncts_executed, 2u);
  EXPECT_EQ(report.runtime.cache_hits, 3u);

  DatabaseSource outer_backend(&db, &catalog);
  CachingSource cache(&outer_backend);
  AnswerStarReport outer = AnswerStar(q, catalog, &cache);
  ASSERT_TRUE(outer.ok) << outer.error;
  EXPECT_EQ(outer.under, report.under);
  EXPECT_EQ(outer_backend.stats().calls, 3u);
  EXPECT_EQ(outer.runtime.disjuncts_executed, 2u);
  EXPECT_EQ(cache.cache_stats().hits, 3u);
}

// One exact disjunct over R and S, one padded disjunct whose answerable
// part is T(x) (B(w) cannot be called), against a source where every call
// to `failing` fails.
AnswerStarReport RunWithFailingRelation(const std::string& failing) {
  Catalog catalog = Catalog::MustParse("R/2: oo\nS/1: o\nT/1: o\nB/1: i\n");
  UnionQuery q = MustParseUnionQuery(
      "Q(x) :- R(x, z), not S(z).\nQ(x) :- T(x), B(w).");
  Database db = Database::MustParseFacts(R"(
    R("a", "b").
    R("c", "d").
    S("b").
    T("t").
  )");
  DatabaseSource backend(&db, &catalog);
  FaultPlan plan;
  plan.relation_failure_probability[failing] = 1.0;
  SimulatedClock clock;
  FaultInjectingSource faulty(&backend, plan, &clock);
  return AnswerStar(q, catalog, &faulty);
}

TEST(AnswerStarTest, AttributesFailuresToTheDriveThatRanTheDisjunct) {
  const AnswerStarReport healthy = RunWithFailingRelation("none");
  ASSERT_TRUE(healthy.ok) << healthy.error;
  EXPECT_EQ(healthy.under, (std::set<Tuple>{{Term::Constant("c")}}));
  EXPECT_EQ(healthy.over, (std::set<Tuple>{{Term::Constant("c")},
                                           {Term::Constant("t")}}));

  const AnswerStarReport exact = RunWithFailingRelation("R");
  EXPECT_FALSE(exact.ok);
  EXPECT_EQ(exact.error.rfind("underestimate plan failed: ", 0), 0u)
      << exact.error;

  const AnswerStarReport padded = RunWithFailingRelation("T");
  EXPECT_FALSE(padded.ok);
  EXPECT_EQ(padded.error.rfind("overestimate plan failed: ", 0), 0u)
      << padded.error;
  EXPECT_TRUE(padded.under.empty());
  EXPECT_TRUE(padded.over.empty());
}

}  // namespace
}  // namespace ucqn
