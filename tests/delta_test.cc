// Delta feeds (src/eval/delta.h): batch normalization against the live
// instance, scoped cache invalidation, and standing-query maintenance —
// including the sign-flipping anti-join cases and delete-then-reinsert.
// The randomized cross-check against from-scratch runs lives in
// delta_oracle_test.cc; these are the hand-sized corners.

#include "eval/delta.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ast/parser.h"
#include "eval/answer_star.h"
#include "feasibility/compile.h"
#include "feasibility/plan_star.h"
#include "runtime/shared_cache.h"

namespace ucqn {
namespace {

Tuple T1(const std::string& a) { return {Term::Constant(a)}; }
Tuple T2(const std::string& a, const std::string& b) {
  return {Term::Constant(a), Term::Constant(b)};
}

TEST(ApplyDeltaTest, NormalizesAgainstTheLiveInstance) {
  Database db = Database::MustParseFacts(R"(
    B("a", "x").
    B("b", "y").
  )");

  // Restating an existing tuple and deleting an absent one are both
  // no-ops: the effective delta is empty and nothing downstream fires.
  RelationDelta noop;
  noop.relation = "B";
  noop.inserts = {T2("a", "x")};
  noop.deletes = {T2("z", "z")};
  std::optional<AppliedDelta> applied = ApplyDelta(&db, noop);
  ASSERT_TRUE(applied.has_value());
  EXPECT_TRUE(applied->empty());
  EXPECT_EQ(db.TupleCount("B"), 2u);

  // Deletes apply before inserts: a tuple in both sets stays present and
  // the effective delta does not report it at all.
  RelationDelta both;
  both.relation = "B";
  both.inserts = {T2("a", "x"), T2("c", "z")};
  both.deletes = {T2("a", "x"), T2("b", "y")};
  applied = ApplyDelta(&db, both);
  ASSERT_TRUE(applied.has_value());
  EXPECT_TRUE(db.Contains("B", T2("a", "x")));
  EXPECT_TRUE(db.Contains("B", T2("c", "z")));
  EXPECT_FALSE(db.Contains("B", T2("b", "y")));
  EXPECT_EQ(applied->inserted, std::set<Tuple>({T2("c", "z")}));
  EXPECT_EQ(applied->deleted, std::set<Tuple>({T2("b", "y")}));
  EXPECT_EQ(applied->ChangedTuples().size(), 2u);
}

TEST(ApplyDeltaTest, RejectsBadBatchesWithoutTouchingTheDatabase) {
  Database db = Database::MustParseFacts(R"(B("a", "x").)");
  std::string error;

  RelationDelta wrong_arity;
  wrong_arity.relation = "B";
  wrong_arity.inserts = {T2("c", "z"), T1("only-one")};
  EXPECT_FALSE(ApplyDelta(&db, wrong_arity, &error).has_value());
  EXPECT_NE(error.find("arity"), std::string::npos);
  // The whole batch was validated up front: the good tuple did not land.
  EXPECT_EQ(db.TupleCount("B"), 1u);
  EXPECT_FALSE(db.Contains("B", T2("c", "z")));

  RelationDelta non_ground;
  non_ground.relation = "B";
  non_ground.inserts = {{Term::Variable("x"), Term::Constant("y")}};
  EXPECT_FALSE(ApplyDelta(&db, non_ground, &error).has_value());
  EXPECT_EQ(db.TupleCount("B"), 1u);
}

TEST(InvalidateDeltaTest, DropsOnlyKeysTheChangedTuplesCanMatch) {
  SharedCacheStore store;
  const std::string key_a = PackSourceCacheSignature(
      "B", "io", {Term::Constant("a"), std::nullopt});
  const std::string key_b = PackSourceCacheSignature(
      "B", "io", {Term::Constant("b"), std::nullopt});
  const std::string key_scan =
      PackSourceCacheSignature("B", "oo", {std::nullopt, std::nullopt});
  const std::string key_other =
      PackSourceCacheSignature("L", "o", {std::nullopt});
  for (const std::string& key : {key_a, key_b, key_scan}) {
    ASSERT_EQ(store.TryAcquire(key, "B").state,
              SharedCacheStore::LookupState::kLeader);
    store.Publish(key, "B", EncodeRows({}, 2));
  }
  ASSERT_EQ(store.TryAcquire(key_other, "L").state,
            SharedCacheStore::LookupState::kLeader);
  store.Publish(key_other, "L", EncodeRows({T1("a")}, 1));
  ASSERT_EQ(store.size(), 4u);

  // ("a", "x") agrees with key_a's bound slot and (vacuously) with the
  // full scan; key_b is bound to a different value and survives, as does
  // the other relation.
  const std::size_t dropped = store.InvalidateDelta("B", {T2("a", "x")});
  EXPECT_EQ(dropped, 2u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.TryAcquire(key_b, "B").state,
            SharedCacheStore::LookupState::kHit);
  EXPECT_EQ(store.TryAcquire(key_other, "L").state,
            SharedCacheStore::LookupState::kHit);
  EXPECT_EQ(store.stats().invalidated, 2u);
}

TEST(InvalidateDeltaTest, OpaqueKeysAreDroppedConservatively) {
  SharedCacheStore store;
  ASSERT_EQ(store.TryAcquire("opaque-key", "B").state,
            SharedCacheStore::LookupState::kLeader);
  store.Publish("opaque-key", "B", EncodeRows({T2("q", "r")}, 2));
  // The key cannot be unpacked, so scoping is impossible — it must go.
  EXPECT_EQ(store.InvalidateDelta("B", {T2("zzz", "zzz")}), 1u);
  EXPECT_EQ(store.size(), 0u);
}

// ---------------------------------------------------------------------------
// Standing-query maintenance. Every case asserts the maintained report
// equals a from-scratch ANSWER* run on the post-update instance.

void ExpectMatchesFreshRun(const StandingQuery& standing,
                           const UnionQuery& compiled, const Catalog& catalog,
                           const Database& db) {
  DatabaseSource backend(&db, &catalog);
  const AnswerStarReport fresh =
      AnswerStar(compiled, catalog, &backend, ExecutionOptions{});
  ASSERT_TRUE(fresh.ok) << fresh.error;
  const AnswerBracket maintained = standing.Answers();
  EXPECT_EQ(maintained.under, fresh.under);
  EXPECT_EQ(maintained.over, fresh.over);
  EXPECT_EQ(maintained.delta, fresh.delta);
  EXPECT_EQ(maintained.complete, fresh.complete);
  EXPECT_EQ(maintained.delta_has_nulls, fresh.delta_has_nulls);
  EXPECT_EQ(maintained.completeness_lower_bound,
            fresh.completeness_lower_bound);
}

struct StandingFixture {
  Catalog catalog;
  Database db;
  UnionQuery compiled;
  std::unique_ptr<DatabaseSource> backend;
  std::unique_ptr<StandingQuery> standing;

  StandingFixture(const std::string& schema, const std::string& facts,
                  const std::string& query_text)
      : catalog(Catalog::MustParse(schema)),
        db(Database::MustParseFacts(facts)) {
    std::string error;
    std::optional<UnionQuery> query = ParseUnionQuery(query_text, &error);
    EXPECT_TRUE(query.has_value()) << error;
    compiled = Compile(*query, catalog, {}).analyzed_query;
    backend = std::make_unique<DatabaseSource>(&db, &catalog);
    standing = StandingQuery::Build(compiled, catalog, backend.get(), &error);
    EXPECT_NE(standing, nullptr) << error;
  }

  // Applies one multi-relation batch end to end: database first, then the
  // standing query against the post-update state.
  void Apply(std::vector<RelationDelta> batch) {
    std::vector<AppliedDelta> applied;
    for (const RelationDelta& group : batch) {
      std::string error;
      std::optional<AppliedDelta> one = ApplyDelta(&db, group, &error);
      ASSERT_TRUE(one.has_value()) << error;
      if (!one->empty()) applied.push_back(std::move(*one));
    }
    std::string error;
    ASSERT_TRUE(standing->ApplyDeltas(applied, backend.get(), &error))
        << error;
  }

  // Like Apply, but maintains through `source` and reports instead of
  // asserting.
  bool ApplyVia(Source* source, const std::vector<RelationDelta>& batch,
                std::string* error) {
    std::vector<AppliedDelta> applied;
    for (const RelationDelta& group : batch) {
      std::optional<AppliedDelta> one = ApplyDelta(&db, group, error);
      if (!one.has_value()) return false;
      if (!one->empty()) applied.push_back(std::move(*one));
    }
    return standing->ApplyDeltas(applied, source, error);
  }

  void ExpectFresh() { ExpectMatchesFreshRun(*standing, compiled, catalog, db); }
};

// Forwards to `inner`, except that calls numbered [first, first + count)
// (1-based) fail as transient errors.
class FlakySource : public Source {
 public:
  FlakySource(Source* inner, std::uint64_t first, std::uint64_t count)
      : inner_(inner), first_(first), count_(count) {}

  FetchResult Fetch(const std::string& relation, const AccessPattern& pattern,
                    const std::vector<std::optional<Term>>& inputs) override {
    ++calls_;
    if (calls_ >= first_ && calls_ - first_ < count_) {
      return FetchResult::TransientError("injected failure");
    }
    return inner_->Fetch(relation, pattern, inputs);
  }

 private:
  Source* inner_;
  std::uint64_t first_;
  std::uint64_t count_;
  std::uint64_t calls_ = 0;
};

constexpr const char* kJoinSchema = "L/1: o\nB/2: io\n";
constexpr const char* kJoinFacts = R"(
  L("a"). L("b").
  B("a", "x"). B("b", "y"). B("c", "z").
)";
constexpr const char* kJoinQuery = "Q(x, y) :- L(x), B(x, y).";

TEST(StandingQueryTest, BuildEvaluatesEachExactDisjunctOnce) {
  // PLAN* puts the fully answerable disjunct into both Qᵘ and Qᵒ; the
  // standing query keeps one chain for it, so building it costs exactly
  // one execution of Qᵘ over an uncached source.
  const Catalog catalog = Catalog::MustParse(kJoinSchema);
  const Database db = Database::MustParseFacts(kJoinFacts);
  std::string error;
  std::optional<UnionQuery> query = ParseUnionQuery(kJoinQuery, &error);
  ASSERT_TRUE(query.has_value()) << error;

  DatabaseSource executed(&db, &catalog);
  const ExecutionResult under =
      Execute(PlanStar(*query, catalog).under, catalog, &executed);
  ASSERT_TRUE(under.ok) << under.error;

  DatabaseSource built(&db, &catalog);
  ASSERT_NE(StandingQuery::Build(*query, catalog, &built, &error), nullptr)
      << error;
  EXPECT_EQ(built.stats().calls, executed.stats().calls);
  EXPECT_EQ(built.stats().calls, 3u);
}

TEST(StandingQueryTest, RowsSharingAProbeValueShareOneCall) {
  // Build and repair fetch through the DAG driver, whose waves are
  // deduplicated per signature: two frontier rows with the same y make
  // one B(k) call, not one per row, on an uncached source.
  StandingFixture fx("L/2: oo\nB/2: io\n",
                     R"(
                       L("a", "k"). L("b", "k").
                       B("k", "z").
                     )",
                     "Q(x, y, z) :- L(x, y), B(y, z).");
  EXPECT_EQ(fx.backend->per_relation_stats().at("B").calls, 1u);
  fx.ExpectFresh();

  fx.backend->ResetStats();
  fx.Apply({RelationDelta{"L", {T2("c", "k"), T2("d", "k")}, {}}});
  EXPECT_EQ(fx.backend->per_relation_stats().at("B").calls, 1u);
  EXPECT_EQ(fx.backend->stats().calls, 1u);
  fx.ExpectFresh();
  EXPECT_EQ(fx.standing->Answers().under.size(), 4u);
}

TEST(StandingQueryTest, StageFirstReachedByARepairChoosesItsPatternThen) {
  // L is empty at build time, so no row reaches B or the anti-join on E
  // and neither stage has chosen a pattern. The first insert into L
  // reaches both during the repair; the bracket must still equal a fresh
  // run, through later inserts and deletes on every relation.
  StandingFixture fx("L/1: o\nB/2: oo io\nE/1: i\n",
                     R"(
                       B("a", "x"). B("a", "y"). B("b", "z").
                       E("y").
                     )",
                     "Q(x, y) :- L(x), B(x, y), not E(y).");
  EXPECT_EQ(fx.backend->stats().calls, 1u);  // the L scan only
  ASSERT_TRUE(fx.standing->Answers().under.empty());

  fx.Apply({RelationDelta{"L", {T1("a")}, {}}});
  fx.ExpectFresh();
  EXPECT_EQ(fx.standing->Answers().under, std::set<Tuple>({T2("a", "x")}));

  fx.Apply({RelationDelta{"E", {T1("x")}, {T1("y")}},
            RelationDelta{"L", {T1("b")}, {}}});
  fx.ExpectFresh();
  EXPECT_EQ(fx.standing->Answers().under,
            std::set<Tuple>({T2("a", "y"), T2("b", "z")}));

  fx.Apply({RelationDelta{"B", {T2("b", "w")}, {T2("a", "y")}}});
  fx.ExpectFresh();
}

TEST(StandingQueryTest, FailedRepairIsRebuiltFromTheRecordedStages) {
  StandingFixture fx(kJoinSchema, kJoinFacts, kJoinQuery);
  // The repair's first call (B for the inserted "c") fails; the rebuild
  // that follows sees a healthy source and must land on the fresh bracket.
  FlakySource flaky(fx.backend.get(), 1, 1);
  std::string error;
  ASSERT_TRUE(fx.ApplyVia(&flaky, {RelationDelta{"L", {T1("c")}, {}}}, &error))
      << error;
  ASSERT_TRUE(fx.standing->Answers().ok) << fx.standing->Answers().error;
  fx.ExpectFresh();
  EXPECT_EQ(fx.standing->Answers().under.count(T2("c", "z")), 1u);

  // Later batches maintain incrementally again.
  fx.Apply({RelationDelta{"B", {T2("a", "x2")}, {}}});
  fx.ExpectFresh();
}

TEST(StandingQueryTest, QueryParksWhenTheRebuildFailsToo) {
  StandingFixture fx(kJoinSchema, kJoinFacts, kJoinQuery);
  FlakySource broken(fx.backend.get(), 1, 1000);
  std::string error;
  EXPECT_FALSE(
      fx.ApplyVia(&broken, {RelationDelta{"L", {T1("c")}, {}}}, &error));
  EXPECT_NE(error.find("rebuild failed"), std::string::npos) << error;

  // No half-maintained bracket is ever readable: the query reports the
  // failure instead.
  const AnswerBracket parked = fx.standing->Answers();
  EXPECT_FALSE(parked.ok);
  EXPECT_EQ(parked.error, error);
  EXPECT_TRUE(parked.under.empty());
  EXPECT_TRUE(parked.over.empty());

  // A parked query stays parked, even once the source is healthy again.
  std::string again;
  EXPECT_FALSE(fx.ApplyVia(fx.backend.get(),
                           {RelationDelta{"L", {T1("d")}, {}}}, &again));
  EXPECT_EQ(again, error);
  EXPECT_FALSE(fx.standing->Answers().ok);
}

TEST(StandingQueryTest, PaddedDisjunctsExtendOnlyTheOverestimate) {
  // The first disjunct is exact; the second has an unanswerable literal
  // (C has no pattern at all), so it contributes null-padded rows to Qᵒ
  // only.
  StandingFixture fx("L/1: o\nM/1: o\nC/2: ii\n",
                     R"(
                       L("a"). M("b").
                     )",
                     "Q(x, y) :- L(x), L(y).\nQ(x, y) :- M(x), C(x, y).");
  fx.ExpectFresh();
  EXPECT_FALSE(fx.standing->Answers().complete);
  fx.Apply({RelationDelta{"M", {T1("c")}, {}}});
  fx.ExpectFresh();
  EXPECT_EQ(fx.standing->Answers().delta.size(), 2u);
  fx.Apply({RelationDelta{"L", {T1("d")}, {T1("a")}}});
  fx.ExpectFresh();
  EXPECT_EQ(fx.standing->Answers().under, std::set<Tuple>({T2("d", "d")}));
}

TEST(StandingQueryTest, MaintainsAJoinUnderInsertsAndDeletes) {
  StandingFixture fx("L/1: o\nB/2: io\n",
                     R"(
                       L("a"). L("b").
                       B("a", "x"). B("b", "y").
                     )",
                     "Q(x, y) :- L(x), B(x, y).");
  fx.ExpectFresh();

  // Insert into the probe side: a new derivation flows forward.
  fx.Apply({RelationDelta{"B", {T2("a", "x2")}, {}}});
  fx.ExpectFresh();
  EXPECT_EQ(fx.standing->Answers().under.size(), 3u);

  // Delete from the scan side: every derivation through it dies.
  fx.Apply({RelationDelta{"L", {}, {T1("b")}}});
  fx.ExpectFresh();
  EXPECT_EQ(fx.standing->Answers().under.size(), 2u);

  // Multi-relation batch applied as one maintenance call.
  fx.Apply({RelationDelta{"L", {T1("c")}, {T1("a")}},
            RelationDelta{"B", {T2("c", "w")}, {T2("a", "x")}}});
  fx.ExpectFresh();
  EXPECT_EQ(fx.standing->Answers().under, std::set<Tuple>({T2("c", "w")}));
}

TEST(StandingQueryTest, DeleteThenReinsertRestoresTheOriginalAnswers) {
  StandingFixture fx("L/1: o\nB/2: io\n",
                     R"(
                       L("a"). L("b").
                       B("a", "x"). B("b", "y").
                     )",
                     "Q(x, y) :- L(x), B(x, y).");
  const AnswerBracket before = fx.standing->Answers();
  ASSERT_EQ(before.under.size(), 2u);

  fx.Apply({RelationDelta{"B", {}, {T2("a", "x")}}});
  fx.ExpectFresh();
  EXPECT_EQ(fx.standing->Answers().under.size(), 1u);

  fx.Apply({RelationDelta{"B", {T2("a", "x")}, {}}});
  fx.ExpectFresh();
  EXPECT_EQ(fx.standing->Answers().under, before.under);
  EXPECT_EQ(fx.standing->Answers().over, before.over);
}

TEST(StandingQueryTest, AntiJoinFlipsInBothDirections) {
  StandingFixture fx("L/1: o\nE/1: o\n",
                     R"(
                       L("a"). L("b").
                       E("b").
                     )",
                     "Q(x) :- L(x), not E(x).");
  fx.ExpectFresh();
  ASSERT_EQ(fx.standing->Answers().under, std::set<Tuple>({T1("a")}));

  // Insert into the negated relation: a standing answer is *killed*.
  fx.Apply({RelationDelta{"E", {T1("a")}, {}}});
  fx.ExpectFresh();
  EXPECT_TRUE(fx.standing->Answers().under.empty());

  // Delete from the negated relation: dead derivations are *revived*.
  fx.Apply({RelationDelta{"E", {}, {T1("a"), T1("b")}}});
  fx.ExpectFresh();
  EXPECT_EQ(fx.standing->Answers().under,
            std::set<Tuple>({T1("a"), T1("b")}));
}

TEST(StandingQueryTest, SelfJoinInsertProducesEachDerivationOnce) {
  // One relation at both chain positions: an inserted edge participates
  // as the first hop, the second hop, and both at once — the base_end
  // discipline must produce each new derivation exactly once.
  StandingFixture fx("C/2: oo io\n",
                     R"(
                       C("a", "b"). C("b", "c").
                     )",
                     "Q(x, z) :- C(x, y), C(y, z).");
  fx.ExpectFresh();

  // ("c", "a") closes a cycle: new paths through position 1, position 2,
  // and the inserted edge twice (c->a->b).
  fx.Apply({RelationDelta{"C", {T2("c", "a")}, {}}});
  fx.ExpectFresh();

  // A self-loop joins with itself.
  fx.Apply({RelationDelta{"C", {T2("d", "d")}, {}}});
  fx.ExpectFresh();
  EXPECT_TRUE(fx.standing->Answers().under.count(T2("d", "d")));
}

TEST(StandingQueryTest, UnionsMaintainEachDisjunctIndependently) {
  StandingFixture fx("L/1: o\nM/1: o\n",
                     R"(
                       L("a"). M("b").
                     )",
                     "Q(x) :- L(x).\nQ(x) :- M(x).");
  fx.ExpectFresh();
  fx.Apply({RelationDelta{"M", {T1("c")}, {T1("b")}}});
  fx.ExpectFresh();
  EXPECT_EQ(fx.standing->Answers().under,
            std::set<Tuple>({T1("a"), T1("c")}));
  EXPECT_EQ(fx.standing->relations(), std::set<std::string>({"L", "M"}));
}

}  // namespace
}  // namespace ucqn
