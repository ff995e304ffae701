#include "eval/explain.h"

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "cost/cost_model.h"
#include "cost/stats_catalog.h"
#include "eval/planner.h"
#include "feasibility/plan_star.h"
#include "gen/scenarios.h"

namespace ucqn {
namespace {

TEST(ExplainDeltaTest, Example7PartialInstantiation) {
  // The paper's Example 7: Δ ∋ (a, null) reads as
  //   Q(a, y) :- not S("b"), R("a", "b"), B("a", y).
  Scenario s = Example7Nulls();
  DatabaseSource source(&s.database, &s.catalog);
  AnswerStarReport report = AnswerStar(s.query, s.catalog, &source);
  ASSERT_FALSE(report.complete);

  const std::vector<DeltaExplanation> explanations =
      ExplainDelta(s.query, s.catalog, &source, report).explanations;
  ASSERT_EQ(explanations.size(), 1u);
  const DeltaExplanation& e = explanations[0];
  EXPECT_EQ(e.tuple, (Tuple{Term::Constant("a"), Term::Null()}));
  EXPECT_EQ(e.disjunct_index, 0u);
  const ConjunctiveQuery& pi = e.partially_instantiated;
  // Head: ("a", y) — the unknown y stays a variable, not a null.
  EXPECT_EQ(pi.head_terms()[0], Term::Constant("a"));
  EXPECT_TRUE(pi.head_terms()[1].IsVariable());
  // Body in the ORIGINAL order, with the witness b plugged in.
  ASSERT_EQ(pi.body().size(), 3u);
  EXPECT_EQ(pi.body()[0].ToString(), "not S(\"b\")");
  EXPECT_EQ(pi.body()[1].ToString(), "R(\"a\", \"b\")");
  EXPECT_EQ(pi.body()[2].relation(), "B");
  EXPECT_EQ(pi.body()[2].args()[0], Term::Constant("a"));
  EXPECT_TRUE(pi.body()[2].args()[1].IsVariable());
}

TEST(ExplainDeltaTest, CompleteAnswersNeedNoExplanations) {
  Scenario s = Example4UnderOver();  // runtime-complete despite infeasible
  DatabaseSource source(&s.database, &s.catalog);
  AnswerStarReport report = AnswerStar(s.query, s.catalog, &source);
  ASSERT_TRUE(report.complete);
  const DeltaExplanations explained =
      ExplainDelta(s.query, s.catalog, &source, report);
  EXPECT_TRUE(explained.ok) << explained.error;
  EXPECT_TRUE(explained.explanations.empty());
}

TEST(ExplainDeltaTest, EveryDeltaTupleGetsAtLeastOneExplanation) {
  for (const Scenario& s : AllScenarios()) {
    DatabaseSource source(&s.database, &s.catalog);
    AnswerStarReport report = AnswerStar(s.query, s.catalog, &source);
    const DeltaExplanations explanations =
        ExplainDelta(s.query, s.catalog, &source, report);
    ASSERT_TRUE(explanations.ok) << s.name << ": " << explanations.error;
    std::set<Tuple> explained;
    for (const DeltaExplanation& e : explanations.explanations) {
      EXPECT_TRUE(report.delta.count(e.tuple)) << s.name;
      explained.insert(e.tuple);
    }
    for (const Tuple& t : report.delta) {
      EXPECT_TRUE(explained.count(t))
          << s.name << ": unexplained Δ tuple " << TupleToString(t);
    }
  }
}

TEST(ExplainDeltaTest, MultipleWitnessesMultipleExplanations) {
  // Two R-witnesses produce the same null row; both readings surface.
  Catalog catalog = Catalog::MustParse("R/2: oo\nB/2: ii\n");
  UnionQuery q = MustParseUnionQuery("Q(x, y) :- R(x, z), B(x, y).");
  Database db = Database::MustParseFacts(R"(
    R("a", "b1").
    R("a", "b2").
  )");
  DatabaseSource source(&db, &catalog);
  AnswerStarReport report = AnswerStar(q, catalog, &source);
  ASSERT_EQ(report.delta.size(), 1u);  // (a, null)
  const std::vector<DeltaExplanation> explanations =
      ExplainDelta(q, catalog, &source, report).explanations;
  EXPECT_EQ(explanations.size(), 2u);  // one per witness z = b1 / b2
  std::string rendered;
  for (const DeltaExplanation& e : explanations) rendered += e.ToString();
  EXPECT_NE(rendered.find("b1"), std::string::npos);
  EXPECT_NE(rendered.find("b2"), std::string::npos);
}

TEST(ExplainPlanTest, RecordsChosenAndRejectedPatternsWithCosts) {
  Catalog catalog = Catalog::MustParse("Seed/1: o\nLookup/2: io oo\n");
  ConjunctiveQuery q = MustParseRule("Q(x, v) :- Seed(x), Lookup(x, v).");

  StatsCatalog stats;
  RelationStats lookup;
  lookup.calls = 64;
  lookup.tuples = 64;
  lookup.p50_latency_micros = 5000.0;
  stats.Record("Lookup", lookup);
  CardinalityEstimates estimates;
  estimates.Set("Seed", 64.0);
  estimates.Set("Lookup", 5000.0);
  AdaptiveCostOptions options;
  options.tuple_cost_micros = 50.0;
  AdaptiveCostModel model(&stats, estimates, options);

  PlanExplanation explanation = ExplainPlan(q, catalog, model);
  EXPECT_TRUE(explanation.ok);
  EXPECT_EQ(explanation.model, "adaptive");
  ASSERT_EQ(explanation.steps.size(), 2u);
  // The Lookup step records every candidate: the rejected keyed probe
  // (io, priced at 64 slow calls) next to the chosen scan.
  const PatternDecision& decision = explanation.steps[1].decision;
  ASSERT_TRUE(decision.chosen.has_value());
  EXPECT_EQ(decision.chosen->word(), "oo");
  ASSERT_EQ(decision.candidates.size(), 2u);
  EXPECT_EQ(decision.candidates[0].pattern.word(), "io");
  EXPECT_FALSE(decision.candidates[0].chosen);
  EXPECT_TRUE(decision.candidates[1].chosen);
  EXPECT_GT(decision.candidates[0].cost, decision.candidates[1].cost);

  const std::string rendered = explanation.ToString();
  EXPECT_NE(rendered.find("cost model: adaptive"), std::string::npos);
  EXPECT_NE(rendered.find("io cost="), std::string::npos);
  EXPECT_NE(rendered.find("oo cost="), std::string::npos);
  EXPECT_NE(rendered.find("(chosen)"), std::string::npos);
}

TEST(ExplainPlanTest, StopsAtTheFirstNonExecutableLiteral) {
  // Lookup only declares a keyed pattern, so with nothing bound the plan
  // is not executable at literal 0 — the explanation says so.
  Catalog catalog = Catalog::MustParse("Lookup/2: io\n");
  ConjunctiveQuery q = MustParseRule("Q(x, v) :- Lookup(x, v).");
  StaticCostModel model;
  PlanExplanation explanation = ExplainPlan(q, catalog, model);
  EXPECT_FALSE(explanation.ok);
  ASSERT_EQ(explanation.steps.size(), 1u);
  EXPECT_FALSE(explanation.steps[0].decision.chosen.has_value());
  EXPECT_NE(explanation.ToString().find("not executable"), std::string::npos);
  EXPECT_NE(explanation.ToString().find("unusable"), std::string::npos);
}

TEST(ExplainPlanTest, SplitsPlanStarIntoExactAndPaddedDisjuncts) {
  // What `ucqnc --explain` prints: every satisfiable disjunct once, exact
  // ones (in Qᵘ and Qᵒ) apart from padded ones (Qᵒ only, null-padded);
  // `over` keeps Qᵒ's disjunct order for a run behind a cache.
  Catalog catalog = Catalog::MustParse("R/1: o\nS/1: o\nB/2: ii\n");
  UnionQuery q = MustParseUnionQuery(
      "Q(x, y) :- S(x), B(x, y).\nQ(x, y) :- R(x), R(y).\n"
      "Q(x, y) :- R(x), not R(x), S(y).\n");
  const AnswerStarPlan plan =
      SplitForExecution(PlanStar(q, catalog), catalog, nullptr);
  ASSERT_EQ(plan.exact.disjuncts().size(), 1u);
  EXPECT_EQ(plan.exact.disjuncts()[0].ToString(), "Q(x, y) :- R(x), R(y).");
  ASSERT_EQ(plan.padded.disjuncts().size(), 1u);
  EXPECT_EQ(plan.padded.disjuncts()[0].ToString(), "Q(x, null) :- S(x).");
  ASSERT_EQ(plan.over.disjuncts().size(), 2u);
  EXPECT_EQ(plan.over.disjuncts()[0], plan.padded.disjuncts()[0]);
  EXPECT_EQ(plan.over.disjuncts()[1], plan.exact.disjuncts()[0]);
  StaticCostModel model;
  for (const ConjunctiveQuery& disjunct : plan.exact.disjuncts()) {
    EXPECT_TRUE(ExplainPlan(disjunct, catalog, model).ok);
  }
  for (const ConjunctiveQuery& disjunct : plan.padded.disjuncts()) {
    EXPECT_TRUE(ExplainPlan(disjunct, catalog, model).ok);
  }
}

// A pass-through source that records the relation of every run of calls,
// i.e. the literal order the executor actually ran.
class RecordingSource : public Source {
 public:
  explicit RecordingSource(Source* inner) : inner_(inner) {}
  FetchResult Fetch(const std::string& relation, const AccessPattern& pattern,
                    const std::vector<std::optional<Term>>& inputs) override {
    if (runs.empty() || runs.back() != relation) runs.push_back(relation);
    return inner_->Fetch(relation, pattern, inputs);
  }
  std::vector<std::string> runs;

 private:
  Source* inner_;
};

// The walk of the wide_frontier workload, written so that PLAN*'s body
// order (C2, C0, C1) runs C0 as a Cartesian product, and a cost model
// under which the planner reorders it to C0, C1, C2.
struct Walk {
  Catalog catalog = Catalog::MustParse("C0/2: io oo\nC1/2: io\nC2/2: io oo\n");
  UnionQuery query = MustParseUnionQuery(
      "Q(v0, v3) :- C2(v2, v3), C0(v0, v1), C1(v1, v2).");
  CardinalityEstimates estimates = [] {
    CardinalityEstimates e;
    e.Set("C0", 512);
    e.Set("C1", 256);
    e.Set("C2", 510);
    return e;
  }();
  StaticCostModel model{PatternPreference::kMostInputs, estimates};
};

std::vector<std::string> Relations(const UnionQuery& plan) {
  std::vector<std::string> out;
  for (const ConjunctiveQuery& disjunct : plan.disjuncts()) {
    for (const Literal& l : disjunct.body()) out.push_back(l.relation());
  }
  return out;
}

TEST(ExplainPlanTest, ExplainsTheOrderAnswerStarExecutes) {
  Walk walk;
  PlanStarResult plans = PlanStar(walk.query, walk.catalog);
  ASSERT_EQ(Relations(plans.under),
            (std::vector<std::string>{"C2", "C0", "C1"}));
  const AnswerStarPlan plan =
      SplitForExecution(plans, walk.catalog, &walk.model);
  ASSERT_TRUE(plan.padded.disjuncts().empty());
  const UnionQuery& under = plan.exact;
  ASSERT_EQ(Relations(under), (std::vector<std::string>{"C0", "C1", "C2"}));

  Database db = Database::MustParseFacts(R"(
    C0("a", "b").
    C1("b", "c").
    C2("c", "d").
  )");
  DatabaseSource backend(&db, &walk.catalog);
  RecordingSource recording(&backend);
  ExecutionOptions options;
  options.cost_model = &walk.model;
  AnswerStarReport report =
      AnswerStar(walk.query, walk.catalog, &recording, options);
  ASSERT_TRUE(report.complete);
  // The walk is exact, so ANSWER* runs it once, in the explained order.
  EXPECT_EQ(recording.runs, Relations(under));

  // The explained order has no Cartesian step; PLAN*'s own order has one.
  const std::string explained =
      ExplainPlan(under.disjuncts()[0], walk.catalog, walk.model).ToString();
  EXPECT_EQ(explained.find("[cartesian]"), std::string::npos) << explained;
  EXPECT_LT(explained.find("C0(v0, v1)"), explained.find("C1(v1, v2)"));
}

TEST(ExplainPlanTest, MarksCartesianSteps) {
  Walk walk;
  PlanExplanation explanation =
      ExplainPlan(walk.query.disjuncts()[0], walk.catalog, walk.model);
  ASSERT_TRUE(explanation.ok);
  ASSERT_EQ(explanation.steps.size(), 3u);
  // C2 opens the plan (nothing bound yet: a scan, not a product); C0
  // then shares no variable with v2, v3; C1 joins on both sides and is
  // a filter.
  EXPECT_FALSE(explanation.steps[0].cartesian);
  EXPECT_TRUE(explanation.steps[1].cartesian);
  EXPECT_FALSE(explanation.steps[2].cartesian);
  const std::string rendered = explanation.ToString();
  const std::size_t c0 = rendered.find("C0(v0, v1)");
  const std::size_t mark = rendered.find(" [cartesian]\n");
  ASSERT_NE(mark, std::string::npos) << rendered;
  EXPECT_LT(c0, mark);
  EXPECT_LT(mark, rendered.find("C1(v1, v2)"));
  EXPECT_EQ(rendered.rfind("[cartesian]"), mark + 1);  // the only mark
}

}  // namespace
}  // namespace ucqn
