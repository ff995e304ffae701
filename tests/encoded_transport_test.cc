// The id-native source transport: FetchEncoded carries dictionary-id
// signatures down the stack and shared encoded rows back up, and the
// string calls are adapters around it. A string-only source must work at
// either end of a stack with byte-identical answers, witness order and
// ledgers; the operator DAG's hashed output-slot filters must keep the
// reference loop's witness order and multiplicity.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "ast/parser.h"
#include "eval/answer_star.h"
#include "eval/executor.h"
#include "eval/source.h"
#include "feasibility/plan_star.h"
#include "gen/scenarios.h"
#include "gen/workload.h"
#include "gen/workload_replay.h"
#include "runtime/clock.h"
#include "runtime/fault_injection.h"
#include "runtime/shared_cache.h"
#include "runtime/source_stack.h"

namespace ucqn {
namespace {

// A source that implements no call does not compile into a usable type:
// both bases leave their one required call pure.
struct ImplementsNothing : Source {};
struct EncodedImplementsNothing : EncodedSource {};
static_assert(std::is_abstract_v<ImplementsNothing>);
static_assert(std::is_abstract_v<EncodedImplementsNothing>);

// A string-only decorator shaped like the end-to-end bench's timing
// wrapper: it overrides both string calls, forwards them unchanged and
// counts what passes, and never sees an encoded call of its own. It
// forwards Caches() too, so ANSWER* drives a stack under it exactly as
// it drives the bare stack. Below a parallel dispatcher its calls come
// from the pool threads, hence the atomic counters.
class StringOnlyCounter : public Source {
 public:
  explicit StringOnlyCounter(Source* inner) : inner_(inner) {}

  FetchResult Fetch(const std::string& relation, const AccessPattern& pattern,
                    const std::vector<std::optional<Term>>& inputs) override {
    FetchResult result = inner_->Fetch(relation, pattern, inputs);
    ++calls_;
    tuples_ += result.tuples.size();
    return result;
  }

  std::vector<FetchResult> FetchBatch(
      const std::string& relation, const AccessPattern& pattern,
      const std::vector<std::vector<std::optional<Term>>>& inputs) override {
    std::vector<FetchResult> results =
        inner_->FetchBatch(relation, pattern, inputs);
    calls_ += inputs.size();
    for (const FetchResult& result : results) tuples_ += result.tuples.size();
    return results;
  }

  bool Caches() const override { return inner_->Caches(); }

  std::uint64_t calls() const { return calls_.load(); }
  std::uint64_t tuples() const { return tuples_.load(); }

 private:
  Source* inner_;
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> tuples_{0};
};

// Everything an execution over `scenario` shows: the ANSWER* bracket,
// the witnesses of every plan disjunct in order, and each drive's
// ledger. With `string_top` every call enters the stack through the
// string-only decorator and so through the EncodedSource adapter.
std::string RenderThroughStack(const Scenario& scenario,
                               std::size_t parallelism, bool string_top) {
  const PlanStarResult plans = PlanStar(scenario.query, scenario.catalog);
  std::vector<const ConjunctiveQuery*> bodies;
  for (const UnionQuery* plan : {&plans.under, &plans.over}) {
    for (const ConjunctiveQuery& body : plan->disjuncts()) {
      bodies.push_back(&body);
    }
  }

  DatabaseSource backend(&scenario.database, &scenario.catalog);
  SharedCacheStore store;
  RuntimeOptions runtime;
  runtime.shared_cache = &store;
  runtime.metering = true;
  runtime.parallelism = parallelism;
  std::ostringstream out;
  auto ledger = [&](SourceStack& stack) {
    const RuntimeStats stats = stack.stats();
    out << "ledger: calls=" << stats.source_calls
        << " hits=" << stats.cache_hits << " misses=" << stats.cache_misses
        << " backend=" << backend.stats().calls << "\n";
  };
  // Two rounds over one store: the first fills it, the second is served
  // from it, so both the miss and the hit path go through the adapter.
  for (int round = 0; round < 2; ++round) {
    {
      SourceStack stack(&backend, runtime);
      StringOnlyCounter top(stack.source());
      Source* source = string_top ? static_cast<Source*>(&top) : stack.source();
      AnswerStarReport report = AnswerStar(scenario.query, scenario.catalog,
                                           source);
      out << report.Summary() << "\nunder: " << TupleSetToString(report.under)
          << "\nover: " << TupleSetToString(report.over) << "\n";
      ledger(stack);
    }
    for (const ConjunctiveQuery* body : bodies) {
      SourceStack stack(&backend, runtime);
      StringOnlyCounter top(stack.source());
      Source* source = string_top ? static_cast<Source*>(&top) : stack.source();
      BindingsResult result =
          ExecuteForBindings(*body, scenario.catalog, source);
      if (result.ok) {
        for (const Substitution& binding : result.bindings) {
          out << "  " << binding.ToString() << "\n";
        }
      } else {
        out << "error: " << result.error << "\n";
      }
      ledger(stack);
    }
  }
  return out.str();
}

TEST(EncodedTransportTest, StringDecoratorAboveACachedStackChangesNothing) {
  for (const Scenario& scenario : AllScenarios()) {
    for (std::size_t parallelism : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(scenario.name + " parallelism=" +
                   std::to_string(parallelism));
      EXPECT_EQ(RenderThroughStack(scenario, parallelism, true),
                RenderThroughStack(scenario, parallelism, false));
    }
  }
}

TEST(EncodedTransportTest, StringBackendBelowTheStackReplaysIdentically) {
  // The seeded flaky replay of the goldens (workload_seed23), once over
  // the plain fault-injecting backend and once with a string-only
  // decorator between the daemon's stacks and that backend.
  WorkloadGenOptions gen;
  gen.seed = 23;
  gen.num_queries = 24;
  gen.domain_size = 12;
  gen.tuples_per_relation = 24;
  gen.union_prob = 0.4;
  gen.negation_prob = 0.4;
  gen.flaky_relations = 1;
  gen.flaky_failure_probability = 0.3;
  gen.replay.requests = 60;
  gen.replay.seed = 23;
  const WorkloadSpec spec = GenerateWorkload(gen);

  for (std::size_t parallelism : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("parallelism=" + std::to_string(parallelism));
    WorkloadReplayOptions options;
    options.daemon.runtime.parallelism = parallelism;
    const WorkloadReplayReport native = ReplayWorkload(spec, options);

    SimulatedClock clock;
    Database database = spec.database;
    DatabaseSource backend(&database, &spec.catalog);
    FaultInjectingSource faulty(&backend, spec.faults, &clock);
    StringOnlyCounter bottom(&faulty);
    QueryDaemon::Options daemon_options = options.daemon;
    daemon_options.runtime.clock = &clock;
    daemon_options.cache.clock = &clock;
    daemon_options.database = &database;
    QueryDaemon daemon(&spec.catalog, &bottom, daemon_options);
    const WorkloadReplayReport adapted = ReplayWorkload(
        spec, options,
        [&daemon](const ServiceRequest& request) {
          return daemon.Submit(request);
        },
        &clock);

    ASSERT_TRUE(native.ok);
    ASSERT_TRUE(adapted.ok);
    EXPECT_EQ(adapted.answers_hash, native.answers_hash);
    EXPECT_EQ(adapted.ok_count, native.ok_count);
    EXPECT_EQ(adapted.error_count, native.error_count);
    EXPECT_EQ(adapted.physical_calls, native.physical_calls);
    EXPECT_EQ(adapted.cache_hits, native.cache_hits);
    EXPECT_EQ(adapted.cache_misses, native.cache_misses);
    EXPECT_EQ(adapted.sim_wall_micros, native.sim_wall_micros);
    EXPECT_EQ(adapted.p50_micros, native.p50_micros);
    EXPECT_EQ(adapted.p99_micros, native.p99_micros);
    EXPECT_EQ(bottom.calls(), faulty.fault_stats().calls);
  }
}

TEST(EncodedTransportTest, StringBoundaryDropsTuplesThatCannotUnify) {
  const std::vector<Tuple> tuples = {
      {Term::Constant("a"), Term::Constant("b")},
      {Term::Constant("a")},                       // wrong arity
      {Term::Constant("c"), Term::Variable("v")},  // not ground
      {Term::Constant("d"), Term::Null()}};
  SharedRows rows = EncodeRows(tuples, 2);
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ(DecodeRows(*rows),
            (std::vector<Tuple>{tuples[0], tuples[3]}));
  // Output-slot values never reach a signature (footnote 4).
  const AccessPattern keyed = AccessPattern::MustParse("io");
  EXPECT_EQ(EncodeSignature(keyed, {Term::Constant("a"), Term::Constant("b")}),
            EncodeSignature(keyed, {Term::Constant("a"), std::nullopt}));
  EXPECT_EQ(DecodeSignature(
                EncodeSignature(keyed, {Term::Constant("a"), std::nullopt})),
            (std::vector<std::optional<Term>>{Term::Constant("a"),
                                              std::nullopt}));
}

// Hashed output-slot filters: each query below makes the DAG select on an
// output slot of a scan shared by several rows, which Absorb answers
// through a hash index. Witnesses must come out exactly as the reference
// loop derives them — same order, same multiplicity.
class HashedFilterTest : public ::testing::Test {
 protected:
  HashedFilterTest() {
    catalog_ = Catalog::MustParse("A/1: o\nB/2: oo\nC/3: ooo\n");
    db_ = Database::MustParseFacts(R"(
      A("1"). A("2"). A("3"). A("4").
      B("2", "x"). B("1", "y"). B("2", "z"). B("9", "w"). B("1", "x").
      B("c", "p"). B("c", "q").
      C("1", "k", "k"). C("1", "k", "m"). C("2", "n", "n"). C("1", "j", "j").
      C("3", "k", "j").
    )");
  }

  void ExpectSameWitnesses(const std::string& rule) {
    SCOPED_TRACE(rule);
    const ConjunctiveQuery q = MustParseRule(rule);
    DatabaseSource dag_source(&db_, &catalog_);
    DatabaseSource reference_source(&db_, &catalog_);
    ExecutionOptions reference;
    reference.batch = false;
    BindingsResult dag = ExecuteForBindings(q, catalog_, &dag_source);
    BindingsResult ref =
        ExecuteForBindings(q, catalog_, &reference_source, reference);
    ASSERT_TRUE(dag.ok) << dag.error;
    ASSERT_TRUE(ref.ok) << ref.error;
    ASSERT_FALSE(ref.bindings.empty());
    ASSERT_EQ(dag.bindings.size(), ref.bindings.size());
    for (std::size_t i = 0; i < ref.bindings.size(); ++i) {
      EXPECT_EQ(dag.bindings[i].ToString(), ref.bindings[i].ToString()) << i;
    }
    ExecutionResult dag_answers = Execute(q, catalog_, &dag_source);
    ExecutionResult ref_answers =
        Execute(q, catalog_, &reference_source, reference);
    ASSERT_TRUE(dag_answers.ok);
    EXPECT_EQ(dag_answers.tuples, ref_answers.tuples);
  }

  Catalog catalog_;
  Database db_;
};

TEST_F(HashedFilterTest, ScanFilteredByABoundColumn) {
  // B's only pattern is a scan; x is bound by A, so every row of A
  // shares the one scan and selects on B's first slot.
  ExpectSameWitnesses("Q(x, y) :- A(x), B(x, y).");
}

TEST_F(HashedFilterTest, ConstantAtAnOutputSlot) {
  ExpectSameWitnesses("Q(x, y) :- A(x), B(\"c\", y).");
}

TEST_F(HashedFilterTest, RepeatedVariableBesideABoundColumn) {
  // x selects through the index; the repeated z is checked per
  // candidate, and C("1", "k", "k") / C("1", "j", "j") both survive in
  // fetch order.
  ExpectSameWitnesses("Q(x, z) :- A(x), C(x, z, z).");
}

TEST_F(HashedFilterTest, FilterOnTwoOutputSlots) {
  // Both of the second B's variables are bound: a Filter over the shared
  // scan, indexed on both of its slots.
  ExpectSameWitnesses("Q(x, y) :- A(x), B(x, y), B(x, y).");
}

}  // namespace
}  // namespace ucqn
