// Randomized oracle for delta maintenance: after every update batch, a
// StandingQuery's maintained report must be byte-identical to a
// from-scratch ANSWER* run on the post-update instance — across the
// paper's Examples 1-10 and seeded generated workloads, with batches that
// delete live tuples, reinsert recently deleted ones (revival), and flip
// anti-joins in both directions.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "ast/parser.h"
#include "eval/answer_star.h"
#include "eval/delta.h"
#include "gen/scenarios.h"
#include "gen/workload.h"

namespace ucqn {
namespace {

// One maintained-vs-fresh comparison. The standing report and the fresh
// AnswerStarReport share field shapes by design; every field must agree.
void ExpectMatchesOracle(const StandingQuery& standing, const UnionQuery& query,
                         const Catalog& catalog, const Database& db,
                         const std::string& context) {
  DatabaseSource backend(&db, &catalog);
  const AnswerStarReport fresh = AnswerStar(query, catalog, &backend);
  ASSERT_TRUE(fresh.ok) << context << ": " << fresh.error;
  const AnswerBracket maintained = standing.Answers();
  EXPECT_EQ(maintained.under, fresh.under) << context;
  EXPECT_EQ(maintained.over, fresh.over) << context;
  EXPECT_EQ(maintained.delta, fresh.delta) << context;
  EXPECT_EQ(maintained.complete, fresh.complete) << context;
  EXPECT_EQ(maintained.delta_has_nulls, fresh.delta_has_nulls) << context;
  EXPECT_EQ(maintained.completeness_lower_bound,
            fresh.completeness_lower_bound)
      << context;
}

// Draws a random ground tuple of `arity` from the constant pool.
Tuple RandomTuple(std::mt19937_64* rng, const std::vector<Term>& pool,
                  std::size_t arity) {
  std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
  Tuple tuple;
  tuple.reserve(arity);
  for (std::size_t i = 0; i < arity; ++i) tuple.push_back(pool[pick(*rng)]);
  return tuple;
}

// Builds a StandingQuery over a private copy of `db` and drives `rounds`
// random multi-relation update batches through it, oracle-checking after
// every batch. Batches bias toward tuples that matter: live tuples are
// deleted, recently deleted tuples are reinserted (the revival path), and
// fresh tuples draw from the instance's active domain plus a few constants
// the instance has never seen.
void RunRandomRounds(const UnionQuery& query, const Catalog& catalog,
                     Database db, std::uint64_t seed, int rounds,
                     const std::string& context) {
  DatabaseSource backend(&db, &catalog);
  std::string error;
  std::unique_ptr<StandingQuery> standing =
      StandingQuery::Build(query, catalog, &backend, &error);
  ASSERT_NE(standing, nullptr) << context << ": " << error;
  ExpectMatchesOracle(*standing, query, catalog, db, context + " (build)");

  std::mt19937_64 rng(seed);
  std::vector<Term> pool;
  for (const Term& term : db.ActiveDomain()) {
    if (term.IsConstant()) pool.push_back(term);
  }
  for (const char* fresh : {"zz1", "zz2", "zz3"}) {
    pool.push_back(Term::Constant(fresh));
  }
  std::map<std::string, std::vector<Tuple>> graveyard;

  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (int round = 0; round < rounds; ++round) {
    std::vector<RelationDelta> batch;
    for (const std::string& relation : standing->relations()) {
      const RelationSchema* schema = catalog.Find(relation);
      if (schema == nullptr) continue;
      if (coin(rng) > 0.7) continue;
      RelationDelta group;
      group.relation = relation;
      // Delete up to two live tuples.
      const std::set<Tuple>* live = db.Find(relation);
      if (live != nullptr && !live->empty() && coin(rng) < 0.6) {
        std::uniform_int_distribution<std::size_t> pick(0, live->size() - 1);
        auto it = live->begin();
        std::advance(it, pick(rng));
        group.deletes.push_back(*it);
        graveyard[relation].push_back(*it);
      }
      // Reinsert a recently deleted tuple (revives dead derivations and,
      // on negated relations, re-kills revived ones).
      std::vector<Tuple>& dead = graveyard[relation];
      if (!dead.empty() && coin(rng) < 0.5) {
        std::uniform_int_distribution<std::size_t> pick(0, dead.size() - 1);
        group.inserts.push_back(dead[pick(rng)]);
      }
      // And up to two random tuples from the pool.
      const int fresh_inserts = coin(rng) < 0.5 ? 1 : 2;
      for (int i = 0; i < fresh_inserts; ++i) {
        group.inserts.push_back(RandomTuple(&rng, pool, schema->arity()));
      }
      batch.push_back(std::move(group));
    }
    if (batch.empty()) continue;

    std::vector<AppliedDelta> applied;
    for (const RelationDelta& group : batch) {
      std::optional<AppliedDelta> one = ApplyDelta(&db, group, &error);
      ASSERT_TRUE(one.has_value()) << context << ": " << error;
      if (!one->empty()) applied.push_back(std::move(*one));
    }
    ASSERT_TRUE(standing->ApplyDeltas(applied, &backend, &error))
        << context << " round " << round << ": " << error;
    ExpectMatchesOracle(*standing, query, catalog, db,
                        context + " round " + std::to_string(round));
  }
}

TEST(DeltaOracleTest, PaperScenariosStayByteIdenticalUnderRandomDeltas) {
  std::uint64_t seed = 0xd3177a;
  for (const Scenario& scenario : AllScenarios()) {
    RunRandomRounds(scenario.query, scenario.catalog, scenario.database,
                    seed++, /*rounds=*/8, scenario.name);
  }
}

TEST(DeltaOracleTest, SeededWorkloadQueriesStayByteIdentical) {
  WorkloadGenOptions options;
  options.seed = 7;
  options.chain_length = 3;
  options.enumerable_relations = 2;
  options.decoy_relations = 1;
  options.domain_size = 8;
  options.tuples_per_relation = 16;
  options.num_queries = 6;
  options.negation_prob = 0.5;  // force anti-join coverage
  const WorkloadSpec spec = GenerateWorkload(options);

  std::uint64_t seed = 0xfeed;
  for (std::size_t qi = 0; qi < spec.queries.size(); ++qi) {
    std::string error;
    std::optional<UnionQuery> query =
        ParseUnionQuery(spec.queries[qi], &error);
    ASSERT_TRUE(query.has_value()) << error;
    RunRandomRounds(*query, spec.catalog, spec.database, seed++,
                    /*rounds=*/6, "workload query " + std::to_string(qi));
  }
}

}  // namespace
}  // namespace ucqn
