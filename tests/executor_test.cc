#include "eval/executor.h"

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "cost/cost_model.h"
#include "eval/oracle.h"

namespace ucqn {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() {
    catalog_ = Catalog::MustParse(R"(
      relation B/3: ioo oio
      relation C/2: oo
      relation L/1: o
    )");
    db_ = Database::MustParseFacts(R"(
      B(1, "Knuth", "TAOCP").
      B(2, "Date", "DBS").
      B(3, "Knuth", "CM").
      C(1, "Knuth").
      C(2, "Date").
      C(9, "Ghost").
      L(2).
    )");
  }

  Catalog catalog_;
  Database db_;
};

TEST_F(ExecutorTest, Example1ReorderedPlanRuns) {
  DatabaseSource source(&db_, &catalog_);
  ConjunctiveQuery plan =
      MustParseRule("Q(i, a, t) :- C(i, a), B(i, a, t), not L(i).");
  ExecutionResult result = Execute(plan, catalog_, &source);
  ASSERT_TRUE(result.ok) << result.error;
  // Book 1 (Knuth/TAOCP): in catalog, not in library. Book 2 filtered by L.
  ASSERT_EQ(result.tuples.size(), 1u);
  EXPECT_EQ(*result.tuples.begin(),
            (Tuple{Term::Constant("1"), Term::Constant("Knuth"),
                   Term::Constant("TAOCP")}));
  EXPECT_GT(source.stats().calls, 0u);
}

TEST_F(ExecutorTest, NonExecutableOrderFails) {
  DatabaseSource source(&db_, &catalog_);
  ConjunctiveQuery plan =
      MustParseRule("Q(i, a, t) :- B(i, a, t), C(i, a), not L(i).");
  ExecutionResult result = Execute(plan, catalog_, &source);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("no usable access pattern"), std::string::npos);
}

TEST_F(ExecutorTest, AgreesWithOracleOnExecutablePlans) {
  DatabaseSource source(&db_, &catalog_);
  ConjunctiveQuery plan =
      MustParseRule("Q(i, a, t) :- C(i, a), B(i, a, t), not L(i).");
  ExecutionResult result = Execute(plan, catalog_, &source);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.tuples, OracleEvaluate(plan, db_));
}

TEST_F(ExecutorTest, ConstantsInInputSlots) {
  DatabaseSource source(&db_, &catalog_);
  ConjunctiveQuery plan = MustParseRule("Q(a, t) :- B(1, a, t).");
  ExecutionResult result = Execute(plan, catalog_, &source);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.tuples.size(), 1u);
  EXPECT_EQ((*result.tuples.begin())[1], Term::Constant("TAOCP"));
}

TEST_F(ExecutorTest, RepeatedVariablesFilterFetchedTuples) {
  Catalog catalog = Catalog::MustParse("E/2: oo\n");
  Database db = Database::MustParseFacts(R"(
    E("a", "a").
    E("a", "b").
    E("b", "b").
  )");
  DatabaseSource source(&db, &catalog);
  ExecutionResult result =
      Execute(MustParseRule("Q(x) :- E(x, x)."), catalog, &source);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.tuples.size(), 2u);
}

TEST_F(ExecutorTest, BoundOutputSlotsAreFilteredClientSide) {
  // Join B with itself on the title via the oio pattern: the second call
  // supplies a bound value in an output slot, which the source ignores but
  // the executor must filter.
  DatabaseSource source(&db_, &catalog_);
  ConjunctiveQuery plan =
      MustParseRule("Q(i, i2) :- C(i, a), B(i, a, t), B(i2, a, t).");
  ExecutionResult result = Execute(plan, catalog_, &source);
  ASSERT_TRUE(result.ok) << result.error;
  // Each Knuth/Date book joins with itself only (titles are unique).
  for (const Tuple& t : result.tuples) EXPECT_EQ(t[0], t[1]);
  EXPECT_EQ(result.tuples, OracleEvaluate(plan, db_));
}

TEST_F(ExecutorTest, EmptyBodyGroundHeadEmitsOneRow) {
  DatabaseSource source(&db_, &catalog_);
  ExecutionResult result =
      Execute(MustParseRule("Q(\"a\", null)."), catalog_, &source);
  ASSERT_TRUE(result.ok);
  ASSERT_EQ(result.tuples.size(), 1u);
  EXPECT_EQ(*result.tuples.begin(),
            (Tuple{Term::Constant("a"), Term::Null()}));
  EXPECT_EQ(source.stats().calls, 0u);
}

TEST_F(ExecutorTest, EmptyBodyNonGroundHeadFails) {
  DatabaseSource source(&db_, &catalog_);
  ExecutionResult result =
      Execute(MustParseRule("Q(x)."), catalog_, &source);
  EXPECT_FALSE(result.ok);
}

TEST_F(ExecutorTest, NullPaddedHeadPlanRuns) {
  // The overestimate shape: null is just a constant in the head.
  Catalog catalog = Catalog::MustParse("R/2: oo\nS/1: o\n");
  Database db = Database::MustParseFacts(R"(
    R("a", "b").
    R("c", "d").
    S("d").
  )");
  DatabaseSource source(&db, &catalog);
  ExecutionResult result = Execute(
      MustParseRule("Q(x, null) :- R(x, z), not S(z)."), catalog, &source);
  ASSERT_TRUE(result.ok);
  ASSERT_EQ(result.tuples.size(), 1u);
  EXPECT_EQ(*result.tuples.begin(),
            (Tuple{Term::Constant("a"), Term::Null()}));
}

TEST_F(ExecutorTest, UnionExecutesAllDisjuncts) {
  DatabaseSource source(&db_, &catalog_);
  UnionQuery q = MustParseUnionQuery(R"(
    Q(i) :- L(i).
    Q(i) :- C(i, a).
  )");
  ExecutionResult result = Execute(q, catalog_, &source);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.tuples.size(), 3u);  // {1, 2, 9}
}

TEST_F(ExecutorTest, FalseQueryReturnsNothing) {
  DatabaseSource source(&db_, &catalog_);
  ExecutionResult result = Execute(UnionQuery(), catalog_, &source);
  ASSERT_TRUE(result.ok);
  EXPECT_TRUE(result.tuples.empty());
  EXPECT_EQ(source.stats().calls, 0u);
}

TEST_F(ExecutorTest, MaxBindingsGuardFailsCleanly) {
  Catalog catalog = Catalog::MustParse("E/2: oo\n");
  Database db;
  for (int i = 0; i < 20; ++i) {
    for (int j = 0; j < 20; ++j) {
      db.Insert("E", {Term::Constant("a" + std::to_string(i)),
                      Term::Constant("b" + std::to_string(j))});
    }
  }
  DatabaseSource source(&db, &catalog);
  ConjunctiveQuery plan = MustParseRule("Q(x, w) :- E(x, y), E(z, w).");
  ExecutionOptions options;
  options.max_bindings = 100;  // the cross product has 400*400 bindings
  ExecutionResult result = Execute(plan, catalog, &source, options);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("max_bindings"), std::string::npos);
  // Unlimited succeeds.
  ExecutionResult unlimited = Execute(plan, catalog, &source);
  EXPECT_TRUE(unlimited.ok);
}

TEST_F(ExecutorTest, MaxBindingsHitExactlyAtTheBoundaryPasses) {
  // The guard fails only on *exceeding* the cap: a plan whose largest
  // intermediate result equals max_bindings runs to completion.
  DatabaseSource source(&db_, &catalog_);
  ConjunctiveQuery plan = MustParseRule("Q(i, a) :- C(i, a).");
  ExecutionOptions exact;
  exact.max_bindings = 3;  // C has exactly 3 tuples
  ExecutionResult result = Execute(plan, catalog_, &source, exact);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.tuples.size(), 3u);

  ExecutionOptions below;
  below.max_bindings = 2;
  EXPECT_FALSE(Execute(plan, catalog_, &source, below).ok);
}

TEST_F(ExecutorTest, MaxBindingsOfOneAllowsFullySelectivePlans) {
  DatabaseSource source(&db_, &catalog_);
  ExecutionOptions options;
  options.max_bindings = 1;
  // Every literal keeps at most one live binding: the constant probe picks
  // a single book.
  ExecutionResult selective = Execute(MustParseRule("Q(a, t) :- B(1, a, t)."),
                                      catalog_, &source, options);
  ASSERT_TRUE(selective.ok) << selective.error;
  EXPECT_EQ(selective.tuples.size(), 1u);
  // The same cap rejects any scan with more than one match.
  ExecutionResult scan = Execute(MustParseRule("Q(i, a) :- C(i, a)."),
                                 catalog_, &source, options);
  EXPECT_FALSE(scan.ok);
  EXPECT_NE(scan.error.find("max_bindings"), std::string::npos);
}

TEST_F(ExecutorTest, MaxBindingsIsCheckedBeforeNegationCanShrinkTheSet) {
  // C yields 3 bindings, then `not L` filters book 2 out, leaving 2. The
  // cap is enforced per literal on the intermediate size, so max_bindings=2
  // fails at C even though the post-negation (and final) size fits; the
  // error names the literal that tripped the guard.
  DatabaseSource source(&db_, &catalog_);
  ConjunctiveQuery plan = MustParseRule("Q(i, a) :- C(i, a), not L(i).");
  ExecutionOptions roomy;
  roomy.max_bindings = 3;
  ExecutionResult ok = Execute(plan, catalog_, &source, roomy);
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(ok.tuples.size(), 2u);

  ExecutionOptions tight;
  tight.max_bindings = 2;
  ExecutionResult tripped = Execute(plan, catalog_, &source, tight);
  EXPECT_FALSE(tripped.ok);
  EXPECT_TRUE(tripped.tuples.empty());
  EXPECT_NE(tripped.error.find("max_bindings"), std::string::npos);
  EXPECT_NE(tripped.error.find("C(i, a)"), std::string::npos);
}

TEST_F(ExecutorTest, PatternPreferenceChangesCallShape) {
  // With both B^ioo and B^ooo declared, the kMostInputs executor probes by
  // ISBN (small transfers); kFewestInputs scans and filters client-side —
  // same answers, more tuples moved.
  Catalog catalog = Catalog::MustParse("C/2: oo\nB/3: ioo ooo\n");
  ConjunctiveQuery plan = MustParseRule("Q(i, t) :- C(i, a), B(i, a, t).");

  DatabaseSource selective(&db_, &catalog);
  const StaticCostModel most_model(PatternPreference::kMostInputs);
  ExecutionOptions most;
  most.cost_model = &most_model;
  ExecutionResult r1 = Execute(plan, catalog, &selective, most);
  ASSERT_TRUE(r1.ok) << r1.error;

  DatabaseSource broad(&db_, &catalog);
  const StaticCostModel fewest_model(PatternPreference::kFewestInputs);
  ExecutionOptions fewest;
  fewest.cost_model = &fewest_model;
  ExecutionResult r2 = Execute(plan, catalog, &broad, fewest);
  ASSERT_TRUE(r2.ok) << r2.error;

  EXPECT_EQ(r1.tuples, r2.tuples);  // semantics unchanged
  EXPECT_LT(selective.stats().tuples_returned,
            broad.stats().tuples_returned);
}

TEST_F(ExecutorTest, NegativeProbeUsesBoundValues) {
  // not L(i) should probe with i bound rather than scanning when an input
  // pattern exists; either way the result is an anti-join.
  Catalog catalog = Catalog::MustParse("C/2: oo\nL/1: i\n");
  Database db = Database::MustParseFacts(R"(
    C(1, "a").
    C(2, "b").
    L(2).
  )");
  DatabaseSource source(&db, &catalog);
  ExecutionResult result = Execute(
      MustParseRule("Q(i) :- C(i, a), not L(i)."), catalog, &source);
  ASSERT_TRUE(result.ok);
  ASSERT_EQ(result.tuples.size(), 1u);
  EXPECT_EQ(*result.tuples.begin(), (Tuple{Term::Constant("1")}));
}

}  // namespace
}  // namespace ucqn
