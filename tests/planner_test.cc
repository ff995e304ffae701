#include "eval/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "ast/parser.h"
#include "cost/cost_model.h"
#include "cost/stats_catalog.h"
#include "eval/executor.h"
#include "eval/op/lowering.h"
#include "eval/oracle.h"
#include "feasibility/answerable.h"
#include "gen/random_instance.h"
#include "gen/random_query.h"
#include "schema/adornment.h"

namespace ucqn {
namespace {

TEST(CardinalityEstimatesTest, FromDatabaseAndFallback) {
  Database db = Database::MustParseFacts(R"(
    R("a", "b").
    R("c", "d").
    S("x").
  )");
  CardinalityEstimates est = CardinalityEstimates::FromDatabase(db);
  EXPECT_DOUBLE_EQ(est.Get("R"), 2.0);
  EXPECT_DOUBLE_EQ(est.Get("S"), 1.0);
  EXPECT_DOUBLE_EQ(est.Get("T", 42.0), 42.0);
  est.Set("R", 100.0);
  EXPECT_DOUBLE_EQ(est.Get("R"), 100.0);
}

TEST(CardinalityEstimatesTest, FromCatalogAnnotations) {
  Catalog catalog = Catalog::MustParse("Big/2: oo @9000\nSmall/1: o @3\n");
  CardinalityEstimates est = CardinalityEstimates::FromCatalog(catalog);
  EXPECT_DOUBLE_EQ(est.Get("Big"), 9000.0);
  EXPECT_DOUBLE_EQ(est.Get("Small"), 3.0);
  EXPECT_DOUBLE_EQ(est.Get("Other", 7.0), 7.0);
}

TEST(OptimizeLiteralOrderTest, PrefersSmallRelationFirst) {
  Catalog catalog = Catalog::MustParse("Big/2: oo io\nSmall/1: o\n");
  CardinalityEstimates est;
  est.Set("Big", 10000);
  est.Set("Small", 5);
  ConjunctiveQuery q = MustParseRule("Q(x, y) :- Big(x, y), Small(x).");
  std::optional<ConjunctiveQuery> plan =
      OptimizeLiteralOrder(q, catalog, est);
  ASSERT_TRUE(plan.has_value());
  // Small goes first; Big is then probed through Big^io.
  EXPECT_EQ(plan->body()[0].relation(), "Small");
  EXPECT_TRUE(IsExecutable(*plan, catalog));
}

TEST(OptimizeLiteralOrderTest, FiltersScheduledBeforeExpansions) {
  Catalog catalog = Catalog::MustParse("R/1: o\nProbe/1: i\nFan/2: io\n");
  CardinalityEstimates est;
  est.Set("R", 100);
  est.Set("Fan", 10000);
  ConjunctiveQuery q =
      MustParseRule("Q(x, y) :- R(x), Fan(x, y), Probe(x).");
  std::optional<ConjunctiveQuery> plan =
      OptimizeLiteralOrder(q, catalog, est);
  ASSERT_TRUE(plan.has_value());
  // Probe(x) is a pure filter once x is bound: it must run before Fan.
  EXPECT_EQ(plan->body()[1].relation(), "Probe");
  EXPECT_EQ(plan->body()[2].relation(), "Fan");
}

TEST(OptimizeLiteralOrderTest, NegationsRunAsEarlyFilters) {
  Catalog catalog = Catalog::MustParse("R/1: o\nFan/2: io\nBad/1: o\n");
  CardinalityEstimates est;
  est.Set("Fan", 100000);
  ConjunctiveQuery q =
      MustParseRule("Q(x, y) :- R(x), Fan(x, y), not Bad(x).");
  std::optional<ConjunctiveQuery> plan =
      OptimizeLiteralOrder(q, catalog, est);
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->body()[1].negative());
}

TEST(OptimizeLiteralOrderTest, NotOrderableReturnsNullopt) {
  Catalog catalog = Catalog::MustParse("R/1: o\nB/1: i\n");
  EXPECT_FALSE(OptimizeLiteralOrder(MustParseRule("Q(x) :- R(x), B(y)."),
                                    catalog, CardinalityEstimates())
                   .has_value());
  // Unsafe head is also rejected.
  EXPECT_FALSE(OptimizeLiteralOrder(MustParseRule("Q(x, w) :- R(x)."),
                                    catalog, CardinalityEstimates())
                   .has_value());
}

TEST(OptimizeLiteralOrderTest, UnsatisfiableQueryStillOrders) {
  Catalog catalog = Catalog::MustParse("R/1: o\n");
  ConjunctiveQuery q = MustParseRule("Q(x) :- not R(x), R(x).");
  std::optional<ConjunctiveQuery> plan =
      OptimizeLiteralOrder(q, catalog, CardinalityEstimates());
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(IsExecutable(*plan, catalog));
  Database db = Database::MustParseFacts("R(\"a\").\n");
  DatabaseSource source(&db, &catalog);
  ExecutionResult result = Execute(*plan, catalog, &source);
  ASSERT_TRUE(result.ok);
  EXPECT_TRUE(result.tuples.empty());
}

TEST(OptimizeLiteralOrderTest, UnionVersion) {
  Catalog catalog = Catalog::MustParse("R/2: oo\nS/1: o\n");
  UnionQuery q = MustParseUnionQuery(R"(
    Q(x) :- R(x, z), S(z).
    Q(x) :- S(x).
  )");
  std::optional<UnionQuery> plan =
      OptimizeLiteralOrder(q, catalog, CardinalityEstimates());
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->size(), 2u);
  EXPECT_TRUE(IsExecutable(*plan, catalog));
}

TEST(OptimizeLiteralOrderTest, ReducesSourceTrafficOnSelectiveJoins) {
  Catalog catalog = Catalog::MustParse("Big/2: oo io\nSmall/1: o\n");
  Database db;
  for (int i = 0; i < 200; ++i) {
    db.Insert("Big", {Term::Constant("k" + std::to_string(i)),
                      Term::Constant("v" + std::to_string(i))});
  }
  db.Insert("Small", {Term::Constant("k7")});
  db.Insert("Small", {Term::Constant("k9")});
  CardinalityEstimates est = CardinalityEstimates::FromDatabase(db);
  ConjunctiveQuery q = MustParseRule("Q(x, y) :- Big(x, y), Small(x).");

  DatabaseSource naive_source(&db, &catalog);
  ExecutionResult naive = Execute(q, catalog, &naive_source);
  ASSERT_TRUE(naive.ok);

  std::optional<ConjunctiveQuery> plan = OptimizeLiteralOrder(q, catalog, est);
  ASSERT_TRUE(plan.has_value());
  DatabaseSource smart_source(&db, &catalog);
  ExecutionResult smart = Execute(*plan, catalog, &smart_source);
  ASSERT_TRUE(smart.ok);

  EXPECT_EQ(naive.tuples, smart.tuples);
  EXPECT_LT(smart_source.stats().tuples_returned,
            naive_source.stats().tuples_returned);
}

// Satellite regression for the documented fallback: a relation absent
// from the estimates is ordered exactly as if its cardinality were
// kDefaultFallbackCardinality (1000) — bracketed from both sides, so a
// silent change of the constant (or an inconsistency between Get's
// default and PlannerOptions::fallback_cardinality) fails here.
TEST(PlannerFallbackTest, UnknownRelationIsPricedAtTheDocumentedFallback) {
  Catalog catalog = Catalog::MustParse("Unknown/1: o\nKnown/1: o\n");
  ConjunctiveQuery q = MustParseRule("Q(x, y) :- Unknown(x), Known(y).");

  // Known just below the fallback: it is cheaper, so it runs first.
  CardinalityEstimates below;
  below.Set("Known", kDefaultFallbackCardinality - 1.0);
  std::optional<ConjunctiveQuery> plan =
      OptimizeLiteralOrder(q, catalog, below);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->body()[0].relation(), "Known");

  // Known just above the fallback: now the unknown relation is cheaper.
  CardinalityEstimates above;
  above.Set("Known", kDefaultFallbackCardinality + 1.0);
  plan = OptimizeLiteralOrder(q, catalog, above);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->body()[0].relation(), "Unknown");

  // And a caller-chosen fallback moves the bracket with it.
  PlannerOptions options;
  options.fallback_cardinality = 10.0;
  plan = OptimizeLiteralOrder(q, catalog, above, options);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->body()[0].relation(), "Unknown");
  CardinalityEstimates tiny;
  tiny.Set("Known", 5.0);
  plan = OptimizeLiteralOrder(q, catalog, tiny, options);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->body()[0].relation(), "Known");
}

// Property sweep: the optimized order preserves semantics on random
// orderable queries.
class PlannerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PlannerPropertyTest, OptimizedPlansPreserveAnswers) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 53 + 2);
  RandomSchemaOptions schema_options;
  schema_options.input_slot_prob = 0.35;
  Catalog catalog = RandomCatalog(&rng, schema_options);
  RandomQueryOptions options;
  options.num_literals = 4;
  options.num_variables = 3;
  options.negation_prob = 0.25;
  options.head_arity = 1;
  RandomInstanceOptions instance_options;
  instance_options.domain_size = 4;
  int checked = 0;
  for (int i = 0; i < 20 && checked < 8; ++i) {
    ConjunctiveQuery q = RandomCq(&rng, catalog, options);
    Database db = RandomDatabase(&rng, catalog, instance_options);
    CardinalityEstimates est = CardinalityEstimates::FromDatabase(db);
    std::optional<ConjunctiveQuery> plan =
        OptimizeLiteralOrder(q, catalog, est);
    // A rejected orderable body must fail here, not drop out of the test.
    // IsOrderable calls every unsatisfiable body orderable (it equals
    // `false`); the planner still orders such a body's literals.
    if (!q.IsUnsatisfiable()) {
      EXPECT_EQ(plan.has_value(), IsOrderable(q, catalog)) << q.ToString();
    }
    if (!plan.has_value()) continue;
    ++checked;
    EXPECT_TRUE(IsExecutable(*plan, catalog)) << plan->ToString();
    DatabaseSource source(&db, &catalog);
    ExecutionResult result = Execute(*plan, catalog, &source);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.tuples, OracleEvaluate(q, db)) << plan->ToString();
  }
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerPropertyTest, ::testing::Range(0, 6));

// --- The connectivity rule -------------------------------------------------

std::vector<std::string> Relations(const ConjunctiveQuery& q) {
  std::vector<std::string> out;
  for (const Literal& l : q.body()) out.push_back(l.relation());
  return out;
}

// Cartesian steps of running `q`'s body in order.
int CartesianSteps(const ConjunctiveQuery& q) {
  int steps = 0;
  BoundVariables bound;
  for (const Literal& l : q.body()) {
    if (IsCartesianStep(l, bound)) ++steps;
    if (l.positive()) BindVariables(l, &bound);
  }
  return steps;
}

// Cartesian steps taken while no other remaining positive literal could
// have run next sharing a variable with the bindings — the ones the
// planner could not have avoided at that point.
int ForcedCartesianSteps(const ConjunctiveQuery& q, const Catalog& catalog) {
  int forced = 0;
  BoundVariables bound;
  const std::vector<Literal>& body = q.body();
  for (std::size_t k = 0; k < body.size(); ++k) {
    if (IsCartesianStep(body[k], bound)) {
      bool alternative = false;
      for (std::size_t j = k + 1; j < body.size(); ++j) {
        alternative = alternative ||
                      (body[j].positive() &&
                       CanExecuteNext(catalog, body[j], bound) &&
                       !IsCartesianStep(body[j], bound));
      }
      if (!alternative) ++forced;
    }
    if (body[k].positive()) BindVariables(body[k], &bound);
  }
  return forced;
}

// The wide_frontier walk: C0 and C2 scannable, C1 probe-only.
Catalog WalkCatalog() {
  return Catalog::MustParse("C0/2: io oo\nC1/2: io\nC2/2: io oo\n");
}

TEST(ConnectivityRuleTest, WalkStartsAtTheEndThatKeepsTheJoinConnected) {
  Catalog catalog = WalkCatalog();
  ConjunctiveQuery q = MustParseRule(
      "Q(v0, v3) :- C0(v0, v1), C1(v1, v2), C2(v2, v3).");
  // C2's scan is marginally cheaper than C0's, so the greedy score alone
  // starts at C2 — which leaves C0 to run as a Cartesian product. C1's
  // probes are observed to be fast, so once C0 has run the adaptive model
  // prefers probing C1 over scanning C2.
  CardinalityEstimates estimates;
  estimates.Set("C0", 512);
  estimates.Set("C1", 256);
  estimates.Set("C2", 510);
  StatsCatalog stats;
  RelationStats scan;
  scan.calls = 10;
  scan.tuples = 5110;
  scan.p50_latency_micros = 100.0;
  stats.Record("C0", scan);
  stats.Record("C2", scan);
  RelationStats probe;
  probe.calls = 256;
  probe.tuples = 256;
  probe.p50_latency_micros = 1.0;
  stats.Record("C1", probe);
  AdaptiveCostModel adaptive(&stats, estimates);
  StaticCostModel static_model(PatternPreference::kMostInputs, estimates);
  for (const CostModel* model :
       {static_cast<const CostModel*>(&adaptive),
        static_cast<const CostModel*>(&static_model)}) {
    BoundVariables none;
    ASSERT_TRUE(BetterLiteralScore(
        model->ScoreLiteral(catalog, q.body()[2], none, {}),
        model->ScoreLiteral(catalog, q.body()[0], none, {})))
        << model->name();
    std::optional<ConjunctiveQuery> plan =
        OptimizeLiteralOrder(q, catalog, *model);
    ASSERT_TRUE(plan.has_value()) << model->name();
    EXPECT_EQ(plan->body()[0].relation(), "C0") << model->name();
    EXPECT_EQ(CartesianSteps(*plan), 0) << plan->ToString();
    EXPECT_TRUE(IsExecutable(*plan, catalog));
  }

  // Control: once C1 is scannable too, starting at C2 strands nothing,
  // and the cheaper scan goes first as before.
  Catalog open =
      Catalog::MustParse("C0/2: io oo\nC1/2: io oo\nC2/2: io oo\n");
  estimates.Set("C1", 5000);
  std::optional<ConjunctiveQuery> plan = OptimizeLiteralOrder(
      q, open, StaticCostModel(PatternPreference::kMostInputs, estimates));
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->body()[0].relation(), "C2");
}

TEST(ConnectivityRuleTest, DisconnectedBodyKeepsTheGreedyOrder) {
  Catalog catalog = Catalog::MustParse("R/1: o\nS/1: o\n");
  CardinalityEstimates estimates;
  estimates.Set("R", 20);
  estimates.Set("S", 10);
  std::optional<ConjunctiveQuery> plan = OptimizeLiteralOrder(
      MustParseRule("Q(x, y) :- R(x), S(y)."), catalog, estimates);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(Relations(*plan), (std::vector<std::string>{"S", "R"}));

  // A body that cannot avoid its Cartesian product keeps the greedy order
  // at every step, even where moving the product earlier would reconnect
  // the rest: the filter F(x) still runs before the product S(y).
  Catalog wider =
      Catalog::MustParse("R/1: o\nF/1: i\nS/1: o\nT/2: ii\n");
  estimates.Set("R", 10);
  estimates.Set("S", 20);
  plan = OptimizeLiteralOrder(
      MustParseRule("Q(x, y) :- T(x, y), S(y), F(x), R(x)."), wider,
      estimates);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(Relations(*plan),
            (std::vector<std::string>{"R", "F", "S", "T"}));
}

TEST(ConnectivityRuleTest, VoluntaryCrossProductKeepsTheGreedyOrder) {
  // After R(x), probing Big(x, y) fans out to ~2000 rows per x while the
  // scan of S(y) returns 50: the model prefers the cross product, and
  // Big still joins afterwards (as a filter), so the rule lets it stand.
  Catalog catalog = Catalog::MustParse("R/1: o\nBig/2: io\nS/1: o\n");
  CardinalityEstimates estimates;
  estimates.Set("R", 5);
  estimates.Set("Big", 10000);
  estimates.Set("S", 50);
  std::optional<ConjunctiveQuery> plan = OptimizeLiteralOrder(
      MustParseRule("Q(x, y) :- Big(x, y), S(y), R(x)."), catalog,
      estimates);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(Relations(*plan), (std::vector<std::string>{"R", "S", "Big"}));
  EXPECT_EQ(CartesianSteps(*plan), 1);
  EXPECT_EQ(ForcedCartesianSteps(*plan, catalog), 0);
}

TEST(ConnectivityRuleTest, BodiesWiderThanTheMasksPlanGreedily) {
  Catalog catalog = Catalog::MustParse("E/2: io oo\n");
  // 40 literals over 80 variables, and a 70-literal walk.
  for (const std::string& rule :
       {[] {
          std::string r = "Q(a0) :- ";
          for (int i = 0; i < 40; ++i) {
            r += (i ? ", E(a" : "E(a") + std::to_string(i) + ", b" +
                 std::to_string(i) + ")";
          }
          return r + ".";
        }(),
        [] {
          std::string r = "Q(v0) :- ";
          for (int i = 69; i >= 0; --i) {
            r += "E(v" + std::to_string(i) + ", v" + std::to_string(i + 1) +
                 (i ? "), " : ").");
          }
          return r;
        }()}) {
    ConjunctiveQuery q = MustParseRule(rule);
    std::optional<ConjunctiveQuery> plan =
        OptimizeLiteralOrder(q, catalog, CardinalityEstimates());
    ASSERT_TRUE(plan.has_value()) << rule;
    EXPECT_EQ(plan->body().size(), q.body().size());
    EXPECT_TRUE(IsExecutable(*plan, catalog));
  }
}

// What brute force over every permutation of `q`'s body finds.
struct OrderSearch {
  bool executable = false;      // some order is executable
  bool cartesian_free = false;  // some executable order has no Cartesian step
};

OrderSearch SearchOrders(const ConjunctiveQuery& q, const Catalog& catalog) {
  OrderSearch found;
  std::vector<std::size_t> perm(q.body().size());
  std::iota(perm.begin(), perm.end(), 0);
  do {
    std::vector<Literal> body;
    for (std::size_t i : perm) body.push_back(q.body()[i]);
    ConjunctiveQuery ordered = q.WithBody(std::move(body));
    if (!IsExecutable(ordered, catalog)) continue;
    found.executable = true;
    if (CartesianSteps(ordered) == 0) {
      found.cartesian_free = true;
      break;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  return found;
}

class ConnectivityPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ConnectivityPropertyTest, NoForcedCartesianStepWhenAvoidable) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7919 + 13);
  RandomSchemaOptions schema_options;
  schema_options.min_arity = 2;
  schema_options.input_slot_prob = 0.45;
  RandomQueryOptions options;
  options.shape = QueryShape::kChain;
  options.num_variables = 5;
  options.negation_prob = 0.2;
  options.head_arity = 1;
  int avoidable = 0;
  for (int round = 0; round < 60; ++round) {
    Catalog catalog = RandomCatalog(&rng, schema_options);
    CardinalityEstimates estimates;
    for (const RelationSchema* r : catalog.Relations()) {
      estimates.Set(r->name(),
                    std::uniform_int_distribution<int>(1, 2000)(rng));
    }
    StaticCostModel model(PatternPreference::kMostInputs, estimates);
    options.num_literals = std::uniform_int_distribution<int>(2, 6)(rng);
    UnionQuery u = RandomUcq(&rng, catalog, options, 2);
    for (const ConjunctiveQuery& q : u.disjuncts()) {
      std::optional<ConjunctiveQuery> plan =
          OptimizeLiteralOrder(q, catalog, model);
      const OrderSearch search = SearchOrders(q, catalog);
      // A rejected orderable body must fail here, not drop out of the test.
      EXPECT_EQ(plan.has_value(), search.executable) << q.ToString();
      if (!plan.has_value()) continue;
      EXPECT_TRUE(IsExecutable(*plan, catalog)) << plan->ToString();
      if (!search.cartesian_free) continue;
      ++avoidable;
      EXPECT_EQ(ForcedCartesianSteps(*plan, catalog), 0)
          << q.ToString() << " planned as " << plan->ToString();
    }
  }
  EXPECT_GT(avoidable, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConnectivityPropertyTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace ucqn
