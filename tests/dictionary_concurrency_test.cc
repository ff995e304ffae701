// Concurrency contract of the process-wide term dictionary: racing
// interns of overlapping constant sets must converge to exactly one id
// per spelling, decoders must be safe against concurrent growth, and the
// ids observed by executions across overlapping (multi-lane) waves must
// be stable run over run. Runs under the tsan/ubsan gates via the labels.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ast/parser.h"
#include "dict/term_dictionary.h"
#include "eval/executor.h"
#include "runtime/fault_injection.h"

namespace ucqn {
namespace {

TEST(DictionaryConcurrencyTest, OverlappingInternsConvergeToOneIdEach) {
  TermDictionary dict;
  constexpr int kThreads = 8;
  constexpr int kConstants = 256;

  // Every thread interns the full constant set, each starting at its own
  // offset so first-sight inserts race from all sides.
  std::vector<std::map<std::string, std::uint32_t>> seen(kThreads);
  std::atomic<int> barrier{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      barrier.fetch_add(1);
      while (barrier.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kConstants; ++i) {
        const int k = (i + t * kConstants / kThreads) % kConstants;
        const std::string name = "c" + std::to_string(k);
        seen[t][name] = dict.Intern(name);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // One id per constant, agreed on by every thread.
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t << " saw different ids";
  }
  EXPECT_EQ(dict.size(), 1u + kConstants);  // Δ-null + the constants

  // And each id decodes back to its spelling.
  for (const auto& [name, id] : seen[0]) {
    EXPECT_EQ(dict.Decode(id), name);
  }
}

TEST(DictionaryConcurrencyTest, DecodersRaceSafelyAgainstGrowth) {
  TermDictionary dict;
  constexpr int kConstants = 4096;  // crosses a chunk boundary
  std::atomic<bool> done{false};

  // Readers chase the published size and decode everything under it
  // while the writer is still interning — exercising the acquire/release
  // handoff on size_ and the chunk pointers.
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const std::size_t published = dict.size();
        for (std::size_t id = 0; id < published; ++id) {
          EXPECT_FALSE(dict.Decode(static_cast<std::uint32_t>(id)).empty());
        }
      }
    });
  }
  for (int i = 0; i < kConstants; ++i) {
    dict.Intern("g" + std::to_string(i));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(dict.size(), 1u + kConstants);
}

TEST(DictionaryConcurrencyTest, IdsAreStableAcrossAsyncWaves) {
  // Two executions of the same join — parallel waves, pipelined stages,
  // multi-lane rounds of overlapping waves — must observe identical ids for
  // every constant in the global dictionary: reruns and concurrent
  // tenants key the shared cache by id, so renumbering between waves
  // would silently split cache entries.
  const Catalog catalog = Catalog::MustParse("R/2: oo io\nT/2: io\nS/1: o\n");
  const Database db = Database::MustParseFacts(R"(
    R("a", "b").
    R("c", "d").
    R("e", "b").
    T("b", "t1").
    T("d", "t2").
    S("b").
  )");
  const ConjunctiveQuery query =
      MustParseRule("Q(x, w) :- R(x, z), T(z, w), not S(z).");
  const std::vector<std::string> constants = {"a", "b",  "c",  "d",
                                              "e", "t1", "t2"};

  TermDictionary& dict = TermDictionary::Global();
  std::set<Tuple> first_answers;
  std::map<std::string, std::uint32_t> first_ids;
  for (int run = 0; run < 3; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    DatabaseSource backend(&db, &catalog);
    FaultPlan faults;
    faults.latency_micros = 50;  // force genuinely overlapping waves
    FaultInjectingSource slow(&backend, faults);
    ExecutionOptions options;
    options.runtime.parallelism = 4;
    // Run 0 is the depth-1 columnar loop: it encodes every fetched tuple,
    // interning the full active domain. The later runs pipeline — their
    // overlapping multi-lane waves intern through the same global
    // dictionary and must observe the ids run 0 minted.
    options.runtime.pipeline_depth = run == 0 ? 1 : 2;
    options.runtime.metering = true;
    ExecutionResult result = Execute(query, catalog, &slow, options);
    ASSERT_TRUE(result.ok) << result.error;

    std::map<std::string, std::uint32_t> ids;
    for (const std::string& constant : constants) {
      ids[constant] = dict.Find(constant);
      EXPECT_NE(ids[constant], TermDictionary::kAbsentId) << constant;
    }
    if (run == 0) {
      first_answers = result.tuples;
      first_ids = ids;
      EXPECT_EQ(result.tuples.size(), 1u);  // Q("c","t2")
    } else {
      EXPECT_EQ(result.tuples, first_answers);
      EXPECT_EQ(ids, first_ids);
    }
  }
}

TEST(DictionaryConcurrencyTest, ParallelExecutionsShareOneIdSpace) {
  // Concurrent executions on separate threads intern through the same
  // global dictionary; afterwards every constant still has exactly one
  // id and both executions produced correct answers.
  const Catalog catalog = Catalog::MustParse("P/2: oo io\n");
  const Database db = Database::MustParseFacts(R"(
    P("p1", "q1").
    P("p2", "q2").
    P("p3", "q3").
  )");
  const ConjunctiveQuery query = MustParseRule("Q(x, y) :- P(x, y).");

  constexpr int kThreads = 6;
  std::vector<std::set<Tuple>> answers(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      DatabaseSource backend(&db, &catalog);
      ExecutionOptions options;
      options.runtime.parallelism = 2;
      ExecutionResult result = Execute(query, catalog, &backend, options);
      if (result.ok) answers[t] = result.tuples;
    });
  }
  for (std::thread& thread : threads) thread.join();

  TermDictionary& dict = TermDictionary::Global();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(answers[t].size(), 3u) << "thread " << t;
  }
  for (const std::string& constant : {"p1", "p2", "p3", "q1", "q2", "q3"}) {
    const std::uint32_t id = dict.Find(constant);
    ASSERT_NE(id, TermDictionary::kAbsentId) << constant;
    EXPECT_EQ(dict.Decode(id), constant);
  }
}

}  // namespace
}  // namespace ucqn
