// End-to-end pipelines: text schema/query/facts in, compile-time analysis,
// plan execution, and runtime completeness reporting out — the full flow a
// mediator system would run (Section 1's web-service setting).

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "eval/answer_star.h"
#include "eval/domain_enum.h"
#include "eval/executor.h"
#include "eval/explain.h"
#include "eval/oracle.h"
#include "eval/planner.h"
#include "feasibility/compile.h"
#include "feasibility/feasible.h"
#include "feasibility/li_chang.h"
#include "gen/scenarios.h"
#include "mediator/capabilities.h"
#include "runtime/caching_source.h"
#include "schema/adornment.h"

namespace ucqn {
namespace {

TEST(IntegrationTest, BookServicePipeline) {
  // A web-service flavored catalog: a book search service (by ISBN or by
  // author), a scannable catalog, and a library lookup.
  Catalog catalog = Catalog::MustParse(R"(
    relation BookSearch/3: ioo oio
    relation Catalog/2: oo
    relation Library/1: o
  )");
  UnionQuery query = MustParseUnionQuery(R"(
    Wanted(i, a, t) :- BookSearch(i, a, t), Catalog(i, a), not Library(i).
  )");
  Database db = Database::MustParseFacts(R"(
    BookSearch(1, "Knuth", "TAOCP").
    BookSearch(2, "Date", "DBS").
    BookSearch(3, "Codd", "Relational Model").
    Catalog(1, "Knuth").
    Catalog(2, "Date").
    Catalog(3, "Codd").
    Library(2).
    Library(3).
  )");

  // Compile: the query is not executable as written but feasible.
  FeasibleResult feasible = Feasible(query, catalog);
  ASSERT_TRUE(feasible.feasible);
  EXPECT_EQ(feasible.path, FeasibleDecisionPath::kPlansEqual);

  // Execute the plan and compare with the reference semantics.
  DatabaseSource source(&db, &catalog);
  ExecutionResult result = Execute(feasible.plans.over, catalog, &source);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.tuples, OracleEvaluate(query, db));
  ASSERT_EQ(result.tuples.size(), 1u);
  EXPECT_EQ((*result.tuples.begin())[2], Term::Constant("TAOCP"));

  // The plan respects the access patterns: each call supplied inputs.
  EXPECT_GT(source.stats().calls, 0u);
}

TEST(IntegrationTest, MediatorViewUnfoldingBirnStyle) {
  // A global-as-view mediator in the BIRN mold: integrated views over
  // neuroscience-ish sources, unfolded into UCQ¬ plans. One view body is
  // unsatisfiable w.r.t. the unfolding (complementary literals), which the
  // runtime handling must neutralize (Section 4.2's discussion).
  Catalog catalog = Catalog::MustParse(R"(
    relation SubjectA/2: oo
    relation SubjectB/2: oo
    relation Excluded/1: o
    relation Scan/2: io
  )");
  UnionQuery unfolded = MustParseUnionQuery(R"(
    Subjects(s, d) :- SubjectA(s, d), not Excluded(s).
    Subjects(s, d) :- SubjectB(s, d), Excluded(s), not Excluded(s).
    Subjects(s, d) :- SubjectB(s, d), not Excluded(s).
  )");
  Database db = Database::MustParseFacts(R"(
    SubjectA("s1", "d1").
    SubjectB("s2", "d2").
    Excluded("s2").
    Scan("s1", "img1").
  )");

  // The unsatisfiable disjunct is dropped by PLAN*; the rest is orderable.
  FeasibleResult feasible = Feasible(unfolded, catalog);
  EXPECT_TRUE(feasible.feasible);
  EXPECT_EQ(feasible.plans.over.size(), 2u);

  DatabaseSource source(&db, &catalog);
  AnswerStarReport report = AnswerStar(unfolded, catalog, &source);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.under, OracleEvaluate(unfolded, db));
  ASSERT_EQ(report.under.size(), 1u);
}

TEST(IntegrationTest, InfeasibleQueryFullRuntimeFlow) {
  // Infeasible query → ANSWER* underestimate → user opts into domain
  // enumeration → improved underestimate closes the gap.
  Scenario s = Example8DomainEnum();
  ASSERT_FALSE(IsFeasible(s.query, s.catalog));

  DatabaseSource source(&s.database, &s.catalog);
  AnswerStarReport report = AnswerStar(s.query, s.catalog, &source);
  EXPECT_FALSE(report.complete);
  std::set<Tuple> truth = OracleEvaluate(s.query, s.database);
  EXPECT_LT(report.under.size(), truth.size());

  ImprovedUnderestimate improved =
      ImproveUnderestimate(s.query, s.catalog, &source);
  EXPECT_EQ(improved.tuples, truth);  // domain enumeration closed the gap
}

TEST(IntegrationTest, ViewLibraryBatchFeasibilityCheck) {
  // "View design / view debugging" (Section 4.1): check a whole library of
  // view definitions at definition time.
  Catalog catalog = Catalog::MustParse(R"(
    relation Orders/3: ioo ooo
    relation Customer/2: io
    relation Blacklist/1: i
    relation Returns/2: ii
  )");
  std::vector<UnionQuery> views = MustParseProgram(R"(
    GoodOrders(o, c) :- Orders(o, c, d), not Blacklist(c).
    CustomerOrders(c, n, o) :- Customer(c, n), Orders(o, c, d).
    ReturnHistory(o, r) :- Returns(o, r).
  )");
  ASSERT_EQ(views.size(), 3u);
  EXPECT_TRUE(IsFeasible(views[0], catalog));   // scan orders, probe list
  // Customer^io needs c bound first; Orders provides it only via ooo scan:
  // reorder Orders first — feasible.
  EXPECT_TRUE(IsFeasible(views[1], catalog));
  // Returns^ii can never produce r: infeasible.
  FeasibleResult r2 = Feasible(views[2], catalog);
  EXPECT_FALSE(r2.feasible);
  EXPECT_EQ(r2.path, FeasibleDecisionPath::kNullInOverestimate);
}

TEST(IntegrationTest, AdornedPlanRendering) {
  // The compile pipeline can show the adorned executable form, matching
  // the paper's B^ioo notation.
  Scenario s = Example1Books();
  FeasibleResult feasible = Feasible(s.query, s.catalog);
  ASSERT_TRUE(feasible.feasible);
  const ConjunctiveQuery& plan = feasible.plans.over.disjuncts()[0];
  std::optional<std::vector<AccessPattern>> adornments =
      ComputeAdornments(plan, s.catalog);
  ASSERT_TRUE(adornments.has_value());
  std::string text = AdornedToString(plan, *adornments);
  EXPECT_NE(text.find("C^oo"), std::string::npos);
  EXPECT_NE(text.find("not L^o"), std::string::npos);
}

TEST(IntegrationTest, FullStackMediatorSession) {
  // Everything at once: a layered view stack is analyzed bottom-up, a
  // client query over the exported catalog is unfolded, chased against a
  // foreign key, compiled, cost-ordered, and executed through a caching
  // indexed source — with the answer matching the reference semantics.
  Catalog sources = Catalog::MustParse(R"(
    relation Person/2: oo io @1000
    relation Employment/2: io @5000
    relation Blocked/1: i @10
  )");
  ViewRegistry views = ViewRegistry::MustParse(R"(
    Workers(p, e) :- Person(p, d), Employment(p, e).
  )");

  // 1. Capability propagation: Workers is feasible outright (Person can
  //    be scanned, then Employment probed).
  ViewStackAnalysis stack = AnalyzeViewStack(views, sources);
  ASSERT_TRUE(stack.ok) << stack.error;
  ASSERT_EQ(stack.capabilities.size(), 1u);
  EXPECT_TRUE(stack.capabilities[0].feasible_outright);

  // 2. A client query over the view, unfolded to the sources.
  UnionQuery client = MustParseUnionQuery(
      "Q(p, e) :- Workers(p, e), not Blocked(p).");
  UnfoldResult unfolded = Unfold(client, views);
  ASSERT_TRUE(unfolded.ok) << unfolded.error;

  // 3. Compile and cost-order.
  CompileResult compiled = Compile(unfolded.query, sources);
  ASSERT_TRUE(compiled.feasible);
  CardinalityEstimates estimates = CardinalityEstimates::FromCatalog(sources);
  std::optional<UnionQuery> ordered =
      OptimizeLiteralOrder(unfolded.query, sources, estimates);
  ASSERT_TRUE(ordered.has_value());

  // 4. Execute through stacked adapters.
  Database db = Database::MustParseFacts(R"(
    Person("ada", "1815").
    Person("bob", "1990").
    Person("eve", "1988").
    Employment("ada", "Analytical Engines Ltd").
    Employment("eve", "Sniffing Inc").
    Blocked("eve").
  )");
  DatabaseSource backend(&db, &sources);
  CachingSource cached(&backend);
  ExecutionResult result = Execute(*ordered, sources, &cached);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.tuples, OracleEvaluate(unfolded.query, db));
  ASSERT_EQ(result.tuples.size(), 1u);
  EXPECT_EQ((*result.tuples.begin())[0], Term::Constant("ada"));

  // 5. ANSWER* certifies completeness (the query is feasible).
  AnswerStarReport report = AnswerStar(unfolded.query, sources, &cached);
  EXPECT_TRUE(report.complete);
  const DeltaExplanations explained =
      ExplainDelta(unfolded.query, sources, &cached, report);
  EXPECT_TRUE(explained.ok) << explained.error;
  EXPECT_TRUE(explained.explanations.empty());
}

TEST(IntegrationTest, LiChangBaselinesAgreeOnScenarioCqs) {
  // Scenario 9/10 are the paper's own CQ/UCQ processing examples; the
  // uniform algorithm and all four baselines agree.
  Scenario e9 = Example9CqProcessing();
  const ConjunctiveQuery& cq = e9.query.disjuncts()[0];
  EXPECT_EQ(CqStable(cq, e9.catalog), IsFeasible(e9.query, e9.catalog));
  EXPECT_EQ(CqStableStar(cq, e9.catalog), IsFeasible(e9.query, e9.catalog));
  Scenario e10 = Example10UcqProcessing();
  EXPECT_EQ(UcqStable(e10.query, e10.catalog),
            IsFeasible(e10.query, e10.catalog));
  EXPECT_EQ(UcqStableStar(e10.query, e10.catalog),
            IsFeasible(e10.query, e10.catalog));
}

}  // namespace
}  // namespace ucqn
