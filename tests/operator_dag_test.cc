// The push-based operator-DAG executor's scheduling knobs: morsel
// splitting must preserve answers and witness order, must not change
// which access pattern runs, and the DAG's counters and lowering render
// are pinned. Byte-level ledgers over Examples 1-10 are pinned by
// golden_executor_test; witness order against the reference loop by
// encoded_executor_test.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ast/parser.h"
#include "cost/cost_model.h"
#include "eval/executor.h"
#include "eval/op/lowering.h"
#include "feasibility/plan_star.h"
#include "gen/scenarios.h"

namespace ucqn {
namespace {

ExecutionOptions MeteredOptions() {
  ExecutionOptions options;
  options.runtime.metering = true;  // force a stack so ledgers are live
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

// Forwards every call and records the access pattern it went through.
class PatternRecorder : public Source {
 public:
  explicit PatternRecorder(Source* inner) : inner_(inner) {}

  FetchResult Fetch(const std::string& relation, const AccessPattern& pattern,
                    const std::vector<std::optional<Term>>& inputs) override {
    calls_.push_back(relation + "^" + pattern.word());
    return inner_->Fetch(relation, pattern, inputs);
  }
  const std::vector<std::string>& calls() const { return calls_; }

 private:
  Source* inner_;
  std::vector<std::string> calls_;
};

TEST(OperatorDagTest, MorselSplittingPreservesWitnessOrder) {
  // Splitting wide frontiers into morsels reshapes the call waves (one
  // wave per morsel) but must not perturb answers or derivation order.
  for (const Scenario& scenario : AllScenarios()) {
    const PlanStarResult plans = PlanStar(scenario.query, scenario.catalog);
    for (const ConjunctiveQuery& body : plans.under.disjuncts()) {
      DatabaseSource whole_backend(&scenario.database, &scenario.catalog);
      BindingsResult whole = ExecuteForBindings(
          body, scenario.catalog, &whole_backend, MeteredOptions());

      for (std::size_t morsel_rows :
           {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
        SCOPED_TRACE(scenario.name +
                     " morsel_rows=" + std::to_string(morsel_rows));
        DatabaseSource backend(&scenario.database, &scenario.catalog);
        ExecutionOptions options = MeteredOptions();
        options.morsel_rows = morsel_rows;
        BindingsResult split =
            ExecuteForBindings(body, scenario.catalog, &backend, options);
        ASSERT_EQ(split.ok, whole.ok) << split.error;
        if (!whole.ok) continue;
        EXPECT_EQ(BindingStrings(split), BindingStrings(whole));
      }
    }
  }
}

TEST(OperatorDagTest, MorselSizeDoesNotChangeWhichPatternRuns) {
  // B can be probed per binding (io) or scanned once (oo). Under the
  // adaptive model's defaults a probe is cheaper for one live binding and
  // a scan for two or more — so pricing a 1-row morsel instead of the six
  // rows queued at B would flip the pattern and the physical calls.
  const Catalog catalog = Catalog::MustParse("A/2: oo\nB/2: oo io\n");
  const Database db = Database::MustParseFacts(R"(
    A("a1", "b1").
    A("a2", "b2").
    A("a3", "b3").
    A("a4", "b4").
    A("a5", "b5").
    A("a6", "b6").
    B("b1", "c1").
    B("b3", "c3").
    B("b6", "c6").
  )");
  const ConjunctiveQuery query =
      MustParseRule("Q(x, w) :- A(x, y), B(y, w).");
  const AdaptiveCostModel model(nullptr);

  const Literal& b = query.body()[1];
  BoundVariables bound;
  BindVariables(query.body()[0], &bound);
  PlanContext one;
  one.live_bindings = 1.0;
  PlanContext six;
  six.live_bindings = 6.0;
  ASSERT_EQ(ChoosePattern(catalog, b, bound, model, one)->word(), "io");
  ASSERT_EQ(ChoosePattern(catalog, b, bound, model, six)->word(), "oo");

  for (std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
    for (std::size_t morsel_rows :
         {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      SCOPED_TRACE("depth=" + std::to_string(depth) +
                   " morsel_rows=" + std::to_string(morsel_rows));
      DatabaseSource backend(&db, &catalog);
      PatternRecorder recorder(&backend);
      ExecutionOptions options = MeteredOptions();
      options.cost_model = &model;
      options.morsel_rows = morsel_rows;
      options.runtime.pipeline_depth = depth;
      // Each morsel issues its own wave, so repeated scans of B reach the
      // cache; the recorder below the stack sees physical calls only.
      options.runtime.cache = true;
      ExecutionResult result = Execute(query, catalog, &recorder, options);
      ASSERT_TRUE(result.ok) << result.error;
      EXPECT_EQ(result.tuples.size(), 3u);
      // One A scan, one B scan — whatever the morsel size or depth.
      EXPECT_EQ(result.runtime.source_calls, 2u);
      EXPECT_EQ(recorder.calls(),
                (std::vector<std::string>{"A^oo", "B^oo"}));
    }
  }
}

TEST(OperatorDagTest, ExecutorCountersAccumulate) {
  // The DAG-side RuntimeStats: one executed disjunct per body, at least
  // one morsel per fetch operator reached, and anti-join build tuples
  // counted from the negated literal's probe sets.
  const Catalog catalog = Catalog::MustParse("R/2: oo\nS/1: i\n");
  const Database db = Database::MustParseFacts(R"(
    R("a", "b").
    R("c", "d").
    S("b").
  )");
  const ConjunctiveQuery query = MustParseRule("Q(x) :- R(x, z), not S(z).");

  DatabaseSource backend(&db, &catalog);
  ExecutionResult result =
      Execute(query, catalog, &backend, MeteredOptions());
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.tuples.size(), 1u);  // Q("c") — S filters away "b"
  EXPECT_EQ(result.runtime.disjuncts_executed, 1u);
  EXPECT_GE(result.runtime.morsels, 2u);  // R scan + S anti-join
  EXPECT_EQ(result.runtime.antijoin_build_tuples, 1u);  // S("b") only

  // The reference loop runs no operators; its counters stay zero. This
  // is what makes `--no-batch` distinguishable in `--metrics`.
  DatabaseSource reference_backend(&db, &catalog);
  ExecutionOptions reference_options = MeteredOptions();
  reference_options.batch = false;
  ExecutionResult reference =
      Execute(query, catalog, &reference_backend, reference_options);
  ASSERT_TRUE(reference.ok) << reference.error;
  EXPECT_EQ(reference.tuples, result.tuples);
  EXPECT_EQ(reference.runtime.disjuncts_executed, 0u);
  EXPECT_EQ(reference.runtime.morsels, 0u);
}

TEST(OperatorDagTest, LoweringRendersTheCompiledChain) {
  // What `--explain` prints per disjunct: operator kind, access pattern,
  // estimated cost, root-first with arrow continuation and an implicit
  // Materialize sink.
  const Catalog catalog = Catalog::MustParse("R/2: oo\nT/2: io\nS/1: i\n");
  const ConjunctiveQuery query =
      MustParseRule("Q(x, w) :- R(x, z), T(z, w), not S(z).");
  const StaticCostModel model;

  LoweredChain chain = LowerDisjunct(query, catalog, model);
  ASSERT_TRUE(chain.ok);
  ASSERT_EQ(chain.ops.size(), 3u);
  EXPECT_EQ(chain.ops[0].kind, OperatorKind::kAccessScan);
  EXPECT_EQ(chain.ops[1].kind, OperatorKind::kHashJoin);
  EXPECT_EQ(chain.ops[2].kind, OperatorKind::kHashAntiJoin);

  const std::string rendered = chain.ToString();
  EXPECT_NE(rendered.find("AccessScan R(x, z) via oo"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("-> HashJoin T(z, w) via io"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("-> HashAntiJoin not S(z) via i"),
            std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("-> Materialize"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("est_cost="), std::string::npos) << rendered;

  // A fully-bound positive literal at its position is a Filter, sharing
  // IsFilterLiteral with the planner's filters-first scheduling.
  const ConjunctiveQuery filter =
      MustParseRule("Q(x, z) :- R(x, z), T(z, x).");
  LoweredChain filter_chain = LowerDisjunct(filter, catalog, model);
  ASSERT_TRUE(filter_chain.ok);
  ASSERT_EQ(filter_chain.ops.size(), 2u);
  EXPECT_EQ(filter_chain.ops[1].kind, OperatorKind::kFilter);
}

}  // namespace
}  // namespace ucqn
