#include "eval/domain_enum.h"

#include <gtest/gtest.h>

#include <random>

#include "ast/parser.h"
#include "eval/executor.h"
#include "eval/oracle.h"
#include "feasibility/plan_star.h"
#include "gen/random_instance.h"
#include "gen/random_query.h"
#include "gen/scenarios.h"

namespace ucqn {
namespace {

TEST(EnumerateDomainTest, HarvestsFullScanOutputs) {
  Catalog catalog = Catalog::MustParse("R/2: oo\nB/2: ii\n");
  Database db = Database::MustParseFacts(R"(
    R("a", "b").
    R("c", "d").
    B("x", "y").
  )");
  DatabaseSource source(&db, &catalog);
  DomainEnumResult result = EnumerateDomain(catalog, &source, {});
  // B is all-input and can never be scanned; dom = R's values only.
  EXPECT_EQ(result.domain.size(), 4u);
  EXPECT_FALSE(result.domain.count(Term::Constant("x")));
  EXPECT_FALSE(result.budget_exhausted);
}

TEST(EnumerateDomainTest, SeedsBootstrapInputPatterns) {
  // F^io can only be called with a seed; its outputs then feed further
  // calls (the Duschka-Levy fixpoint).
  Catalog catalog = Catalog::MustParse("F/2: io\n");
  Database db = Database::MustParseFacts(R"(
    F("s", "a").
    F("a", "b").
    F("b", "c").
    F("z", "unreachable").
  )");
  DatabaseSource source(&db, &catalog);
  DomainEnumResult result =
      EnumerateDomain(catalog, &source, {Term::Constant("s")});
  // Reachable from the seed s: s, a, b, c — but not "unreachable".
  EXPECT_EQ(result.domain.size(), 4u);
  EXPECT_TRUE(result.domain.count(Term::Constant("c")));
  EXPECT_FALSE(result.domain.count(Term::Constant("unreachable")));
}

// A string-only source that records how requests reach it: each wave
// (FetchBatch, with its relation, pattern and size) and each Fetch made
// outside a wave.
class RecordingSource : public Source {
 public:
  explicit RecordingSource(Source* inner) : inner_(inner) {}

  FetchResult Fetch(const std::string& relation, const AccessPattern& pattern,
                    const std::vector<std::optional<Term>>& inputs) override {
    if (!in_batch_) ++lone_fetches;
    return inner_->Fetch(relation, pattern, inputs);
  }

  std::vector<FetchResult> FetchBatch(
      const std::string& relation, const AccessPattern& pattern,
      const std::vector<std::vector<std::optional<Term>>>& inputs) override {
    batches.push_back(relation + "^" + pattern.word() + " x" +
                      std::to_string(inputs.size()));
    in_batch_ = true;
    std::vector<FetchResult> results =
        Source::FetchBatch(relation, pattern, inputs);
    in_batch_ = false;
    return results;
  }

  std::vector<std::string> batches;
  int lone_fetches = 0;

 private:
  Source* inner_;
  bool in_batch_ = false;
};

TEST(EnumerateDomainTest, EachPatternSendsOneWavePerRound) {
  // SeedsBootstrapInputPatterns' instance: every round calls F^io once,
  // with the one value the previous round discovered.
  Catalog catalog = Catalog::MustParse("F/2: io\n");
  Database db = Database::MustParseFacts(R"(
    F("s", "a").
    F("a", "b").
    F("b", "c").
    F("z", "unreachable").
  )");
  DatabaseSource database(&db, &catalog);
  RecordingSource source(&database);
  DomainEnumResult result =
      EnumerateDomain(catalog, &source, {Term::Constant("s")});
  EXPECT_EQ(result.domain,
            (std::set<Term>{Term::Constant("s"), Term::Constant("a"),
                            Term::Constant("b"), Term::Constant("c")}));
  EXPECT_EQ(result.source_calls, 4u);
  EXPECT_EQ(database.stats().calls, 4u);
  EXPECT_EQ(source.batches,
            (std::vector<std::string>{"F^io x1", "F^io x1", "F^io x1",
                                      "F^io x1"}));
  EXPECT_EQ(source.lone_fetches, 0);
}

TEST(EnumerateDomainTest, BudgetStopsFixpoint) {
  Catalog catalog = Catalog::MustParse("F/2: io\n");
  Database db = Database::MustParseFacts(R"(
    F("s", "a").
    F("a", "b").
    F("b", "c").
  )");
  DatabaseSource source(&db, &catalog);
  DomainEnumOptions options;
  options.max_calls = 1;
  DomainEnumResult result =
      EnumerateDomain(catalog, &source, {Term::Constant("s")}, options);
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_LE(result.source_calls, 1u);
}

TEST(EnumerateDomainTest, NoDuplicateCalls) {
  Catalog catalog = Catalog::MustParse("R/1: o\n");
  Database db = Database::MustParseFacts("R(\"a\").\n");
  DatabaseSource source(&db, &catalog);
  DomainEnumResult result = EnumerateDomain(catalog, &source, {});
  // The single no-input call happens exactly once despite multiple rounds.
  EXPECT_EQ(result.source_calls, 1u);
}

TEST(ImproveUnderestimateTest, Example8RecoversAnswer) {
  Scenario s = Example8DomainEnum();
  DatabaseSource source(&s.database, &s.catalog);
  ImprovedUnderestimate improved =
      ImproveUnderestimate(s.query, s.catalog, &source);
  // The plain underestimate only has the T tuple; domain enumeration finds
  // B("a","t2") via dom(y) ∋ t2 and adds the genuine answer (a, t2).
  EXPECT_TRUE(improved.tuples.count(
      {Term::Constant("a"), Term::Constant("t2")}));
  ASSERT_EQ(improved.gained.size(), 1u);
  EXPECT_EQ(*improved.gained.begin(),
            (Tuple{Term::Constant("a"), Term::Constant("t2")}));
  EXPECT_GT(improved.domain.source_calls, 0u);
  EXPECT_GT(improved.evaluation_calls, 0u);
}

TEST(ImproveUnderestimateTest, SoundnessOnAllScenarios) {
  // Improved underestimates must stay within the true answers and contain
  // the plain underestimate.
  for (const Scenario& s : AllScenarios()) {
    DatabaseSource source(&s.database, &s.catalog);
    ImprovedUnderestimate improved =
        ImproveUnderestimate(s.query, s.catalog, &source);
    std::set<Tuple> truth = OracleEvaluate(s.query, s.database);
    for (const Tuple& t : improved.tuples) {
      EXPECT_TRUE(truth.count(t))
          << s.name << ": unsound improved tuple " << TupleToString(t);
    }
  }
}

TEST(ImproveUnderestimateTest, NoGainWhenPlansComplete) {
  Scenario s = Example1Books();  // orderable: plans coincide
  DatabaseSource source(&s.database, &s.catalog);
  ImprovedUnderestimate improved =
      ImproveUnderestimate(s.query, s.catalog, &source);
  EXPECT_TRUE(improved.gained.empty());
  EXPECT_EQ(improved.tuples, OracleEvaluate(s.query, s.database));
}

TEST(ImproveUnderestimateTest, NegativeUnanswerableLiteralHandled) {
  // Both H(w) and not G(x, w) are unanswerable (w can never be bound);
  // the assisted evaluation enumerates w from dom, probes H, and checks
  // the negation after the positives.
  Catalog catalog = Catalog::MustParse("M/1: o\nH/1: i\nG/2: ii\n");
  UnionQuery q = MustParseUnionQuery("Q(x) :- M(x), H(w), not G(x, w).");
  Database db = Database::MustParseFacts(R"(
    M("a").
    M("b").
    H("b").
    G("a", "b").
  )");
  DatabaseSource source(&db, &catalog);
  ImprovedUnderestimate improved = ImproveUnderestimate(q, catalog, &source);
  std::set<Tuple> truth = OracleEvaluate(q, db);
  EXPECT_EQ(truth, (std::set<Tuple>{{Term::Constant("b")}}));
  EXPECT_EQ(improved.tuples, truth);
  EXPECT_EQ(improved.gained, truth);  // plain underestimate was empty
}

TEST(ImproveUnderestimateTest, DistinctSignaturesShareOneCall) {
  // Q(x, y) :- R(x, z), dom(y), B(x, y): the rows (a, 1) and (a, 2) of R
  // ask the same B(a, y) probes, so each distinct (x, y) is one call.
  Catalog catalog = Catalog::MustParse("R/2: oo\nB/2: ii\n");
  UnionQuery q = MustParseUnionQuery("Q(x, y) :- R(x, z), B(x, y).");
  Database db = Database::MustParseFacts(R"(
    R("a", "1").
    R("a", "2").
    B("a", "2").
  )");
  DatabaseSource source(&db, &catalog);
  ImprovedUnderestimate improved = ImproveUnderestimate(q, catalog, &source);
  ASSERT_TRUE(improved.ok);
  EXPECT_EQ(improved.domain.domain.size(), 3u);  // a, 1, 2
  EXPECT_EQ(improved.evaluation_calls,
            1u + improved.domain.domain.size());  // one R scan + B probes
  EXPECT_EQ(improved.evaluation_errors, 0u);
  const std::set<Tuple> truth = {{Term::Constant("a"), Term::Constant("2")}};
  EXPECT_EQ(OracleEvaluate(q, db), truth);
  EXPECT_EQ(improved.tuples, truth);
  EXPECT_EQ(improved.gained, truth);
}

TEST(ImproveUnderestimateTest, SpentBudgetDropsTheDisjunctSoundly) {
  // Three calls enumerate R, S and T; the assisted disjunct then spends
  // its three on R, S and the first B probe and fails on the second.
  Scenario s = Example8DomainEnum();
  DatabaseSource source(&s.database, &s.catalog);
  DomainEnumOptions options;
  options.max_calls = 3;
  ImprovedUnderestimate improved =
      ImproveUnderestimate(s.query, s.catalog, &source, options);
  ASSERT_TRUE(improved.ok) << improved.error;
  EXPECT_GE(improved.evaluation_errors, 1u);
  EXPECT_LE(improved.evaluation_calls, options.max_calls);
  const ExecutionResult plain =
      Execute(PlanStar(s.query, s.catalog).under, s.catalog, &source);
  ASSERT_TRUE(plain.ok);
  const std::set<Tuple> truth = OracleEvaluate(s.query, s.database);
  for (const Tuple& t : plain.tuples) EXPECT_TRUE(improved.tuples.count(t));
  for (const Tuple& t : improved.tuples) EXPECT_TRUE(truth.count(t));
}

TEST(ImproveUnderestimateTest, SoundOnRandomQueries) {
  // under ⊆ improved ⊆ Q(D) on random UCQ¬s with negation, with the
  // budget never spent.
  std::mt19937 rng(20041);
  RandomSchemaOptions schema;
  schema.num_relations = 4;
  schema.input_slot_prob = 0.5;
  RandomQueryOptions query;
  query.num_literals = 3;
  query.num_variables = 4;
  query.negation_prob = 0.3;
  query.head_arity = 2;
  RandomInstanceOptions instance;
  instance.domain_size = 5;
  instance.tuples_per_relation = 8;
  int dismissed = 0;
  int gained = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Catalog catalog = RandomCatalog(&rng, schema);
    UnionQuery q = RandomUcq(&rng, catalog, query, 2);
    Database db = RandomDatabase(&rng, catalog, instance);
    DatabaseSource source(&db, &catalog);
    const PlanStarResult plans = PlanStar(q, catalog);
    for (const DisjunctPlan& plan : plans.disjuncts) {
      if (plan.answerable.has_value() && !plan.unanswerable.empty()) {
        ++dismissed;
      }
    }
    const ExecutionResult plain = Execute(plans.under, catalog, &source);
    ASSERT_TRUE(plain.ok) << plain.error;
    ImprovedUnderestimate improved = ImproveUnderestimate(q, catalog, &source);
    ASSERT_TRUE(improved.ok) << improved.error;
    ASSERT_FALSE(improved.domain.budget_exhausted);
    ASSERT_EQ(improved.evaluation_errors, 0u) << q.ToString();
    const std::set<Tuple> truth = OracleEvaluate(q, db);
    for (const Tuple& t : plain.tuples) {
      EXPECT_TRUE(improved.tuples.count(t)) << q.ToString();
    }
    for (const Tuple& t : improved.tuples) {
      EXPECT_TRUE(truth.count(t))
          << q.ToString() << ": unsound " << TupleToString(t);
    }
    if (!improved.gained.empty()) ++gained;
  }
  // The sample exercises the rewrite, not only plans that are complete.
  EXPECT_GT(dismissed, 10);
  EXPECT_GT(gained, 0);
}

}  // namespace
}  // namespace ucqn
