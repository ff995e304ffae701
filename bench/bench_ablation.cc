// E10 — ablation of a design choice called out in DESIGN.md: the executor
// greedily calls the usable access pattern with the MOST input slots
// (footnote 4's "bound is easier" exploited for selectivity). The ablation
// flips the preference to the fewest-input pattern (fetch broadly, filter
// client-side) and measures source calls, tuples transferred, and wall
// time on the same plans and data. Answers are identical by construction;
// the cost is not.

#include <benchmark/benchmark.h>

#include <random>

#include "ast/parser.h"
#include "cost/cost_model.h"
#include "eval/executor.h"
#include "gen/random_instance.h"

namespace ucqn {
namespace {

struct Fixture {
  Catalog catalog;
  ConjunctiveQuery plan;
  Database db;
};

// A join pipeline where every relation offers both a keyed pattern and a
// full scan; the data is a random graph over `domain` constants.
Fixture MakeFixture(int domain) {
  Fixture f;
  f.catalog = Catalog::MustParse(R"(
    relation Seed/1: o
    relation E1/2: io oo
    relation E2/2: io oo
    relation E3/2: io oo
  )");
  f.plan = MustParseRule(
      "Q(a, d) :- Seed(a), E1(a, b), E2(b, c), E3(c, d).");
  std::mt19937 rng(99);
  RandomInstanceOptions options;
  options.domain_size = domain;
  options.tuples_per_relation = 4 * domain;
  f.db = RandomDatabase(&rng, f.catalog, options);
  // Keep the seed set small: a handful of start points.
  Database db2;
  int seeds = 0;
  for (const Term& t : f.db.ActiveDomain()) {
    if (seeds++ >= 4) break;
    db2.Insert("Seed", {t});
  }
  for (const std::string& name : f.db.RelationNames()) {
    if (name == "Seed") continue;
    for (const Tuple& tuple : *f.db.Find(name)) db2.Insert(name, tuple);
  }
  f.db = std::move(db2);
  return f;
}

void BM_ExecutorPatternChoice(benchmark::State& state) {
  const bool most_inputs = state.range(1) != 0;
  Fixture f = MakeFixture(static_cast<int>(state.range(0)));
  DatabaseSource source(&f.db, &f.catalog);
  const StaticCostModel model(most_inputs ? PatternPreference::kMostInputs
                                           : PatternPreference::kFewestInputs);
  ExecutionOptions options;
  options.cost_model = &model;
  std::size_t answers = 0;
  for (auto _ : state) {
    source.ResetStats();
    ExecutionResult result = Execute(f.plan, f.catalog, &source, options);
    if (!result.ok) {
      state.SkipWithError(result.error.c_str());
      return;
    }
    answers = result.tuples.size();
  }
  state.counters["domain"] = static_cast<double>(state.range(0));
  state.counters["most_inputs"] = most_inputs ? 1.0 : 0.0;
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["source_calls"] = static_cast<double>(source.stats().calls);
  state.counters["tuples_transferred"] =
      static_cast<double>(source.stats().tuples_returned);
}
BENCHMARK(BM_ExecutorPatternChoice)
    ->ArgsProduct({{8, 16, 32, 64}, {0, 1}});

// Sanity pin: both preferences compute identical answers.
void BM_PatternChoiceAgreement(benchmark::State& state) {
  Fixture f = MakeFixture(16);
  DatabaseSource source(&f.db, &f.catalog);
  bool agree = true;
  for (auto _ : state) {
    const StaticCostModel most_model(PatternPreference::kMostInputs);
    const StaticCostModel fewest_model(PatternPreference::kFewestInputs);
    ExecutionOptions most, fewest;
    most.cost_model = &most_model;
    fewest.cost_model = &fewest_model;
    ExecutionResult a = Execute(f.plan, f.catalog, &source, most);
    ExecutionResult b = Execute(f.plan, f.catalog, &source, fewest);
    agree = a.ok && b.ok && a.tuples == b.tuples;
    if (!agree) {
      state.SkipWithError("pattern preferences disagreed on answers");
      return;
    }
  }
  state.counters["agree"] = agree ? 1.0 : 0.0;
}
BENCHMARK(BM_PatternChoiceAgreement);

}  // namespace
}  // namespace ucqn

BENCHMARK_MAIN();
