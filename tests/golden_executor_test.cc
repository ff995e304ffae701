// Golden corpus for the executor. The files under tests/golden/ hold what
// the default execution path (batch waves, operator DAG) printed for the
// paper's worked examples (gen/scenarios.h, Examples 1-10) over the
// parallelism {1, 4} x pipeline_depth {1, 2} grid, plus two small seeded
// workload replays: ANSWER* brackets and summaries, union answers, the
// witness order of every plan disjunct, error text, physical source
// calls, cache hits and misses, and simulated wall-clock. This test
// renders the same report and compares it with the file byte for byte;
// it never writes the files. A mismatch prints the rendered text, so a
// deliberate change of behaviour shows exactly which lines moved; to
// accept it, replace the file with that text in the same change.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "eval/answer_star.h"
#include "eval/executor.h"
#include "feasibility/plan_star.h"
#include "gen/scenarios.h"
#include "gen/workload.h"
#include "gen/workload_replay.h"
#include "runtime/clock.h"
#include "runtime/fault_injection.h"

#ifndef UCQN_GOLDEN_DIR
#error "UCQN_GOLDEN_DIR must name the tests/golden directory"
#endif

namespace ucqn {
namespace {

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(UCQN_GOLDEN_DIR) + "/" + name);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// One scenario backend on its own simulated clock: every physical call
// costs 100us of virtual time, so the clock reading records how the
// executor scheduled its waves.
class TimedBackend {
 public:
  explicit TimedBackend(const Scenario& scenario)
      : backend_(&scenario.database, &scenario.catalog),
        slow_(&backend_, Latency(), &clock_) {}

  Source* source() { return &slow_; }
  Clock* clock() { return &clock_; }

 private:
  static FaultPlan Latency() {
    FaultPlan plan;
    plan.latency_micros = 100;
    return plan;
  }

  SimulatedClock clock_;
  DatabaseSource backend_;
  FaultInjectingSource slow_;
};

ExecutionOptions GridOptions(std::size_t parallelism, std::size_t depth,
                             Clock* clock) {
  ExecutionOptions options;
  options.runtime.cache = true;
  options.runtime.metering = true;
  options.runtime.parallelism = parallelism;
  options.runtime.pipeline_depth = depth;
  options.runtime.clock = clock;
  return options;
}

void RenderLedger(const RuntimeStats& stats, Clock* clock,
                  std::ostringstream* out) {
  *out << "ledger: calls=" << stats.source_calls
       << " hits=" << stats.cache_hits << " misses=" << stats.cache_misses
       << " sim_us=" << clock->NowMicros() << "\n";
}

void RenderExecution(const ExecutionResult& result, Clock* clock,
                     std::ostringstream* out) {
  if (result.ok) {
    *out << "tuples: " << TupleSetToString(result.tuples) << "\n";
  } else {
    *out << "error: " << result.error << "\n";
  }
  RenderLedger(result.runtime, clock, out);
}

void RenderBindings(const BindingsResult& result, Clock* clock,
                    std::ostringstream* out) {
  if (result.ok) {
    *out << "witnesses: " << result.bindings.size() << "\n";
    for (const Substitution& binding : result.bindings) {
      *out << "  " << binding.ToString() << "\n";
    }
  } else {
    *out << "error: " << result.error << "\n";
  }
  RenderLedger(result.runtime, clock, out);
}

std::string RenderScenario(const Scenario& scenario) {
  const PlanStarResult plans = PlanStar(scenario.query, scenario.catalog);
  std::vector<std::pair<std::string, const ConjunctiveQuery*>> bodies;
  for (std::size_t i = 0; i < plans.under.disjuncts().size(); ++i) {
    bodies.emplace_back("under[" + std::to_string(i) + "]",
                        &plans.under.disjuncts()[i]);
  }
  for (std::size_t i = 0; i < plans.over.disjuncts().size(); ++i) {
    bodies.emplace_back("over[" + std::to_string(i) + "]",
                        &plans.over.disjuncts()[i]);
  }

  std::ostringstream out;
  out << "# " << scenario.name << "\n";
  for (std::size_t parallelism : {std::size_t{1}, std::size_t{4}}) {
    for (std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
      out << "== parallelism=" << parallelism << " depth=" << depth << "\n";
      {
        TimedBackend timed(scenario);
        AnswerStarReport report = AnswerStar(
            scenario.query, scenario.catalog, timed.source(),
            GridOptions(parallelism, depth, timed.clock()));
        out << "-- answer_star\n" << report.Summary() << "\n";
        out << "under: " << TupleSetToString(report.under) << "\n";
        out << "over: " << TupleSetToString(report.over) << "\n";
        RenderLedger(report.runtime, timed.clock(), &out);
      }
      for (const auto& [label, plan] :
           {std::pair<std::string, const UnionQuery*>{"under", &plans.under},
            {"over", &plans.over}}) {
        TimedBackend timed(scenario);
        ExecutionResult result =
            Execute(*plan, scenario.catalog, timed.source(),
                    GridOptions(parallelism, depth, timed.clock()));
        out << "-- union " << label << "\n";
        RenderExecution(result, timed.clock(), &out);
      }
      for (const auto& [label, body] : bodies) {
        TimedBackend timed(scenario);
        BindingsResult result =
            ExecuteForBindings(*body, scenario.catalog, timed.source(),
                               GridOptions(parallelism, depth, timed.clock()));
        out << "-- bindings " << label << "\n";
        RenderBindings(result, timed.clock(), &out);
      }
      {
        // A call budget too small for most plans: the failing call, its
        // error text, and the calls spent before it are pinned.
        TimedBackend timed(scenario);
        ExecutionOptions options =
            GridOptions(parallelism, depth, timed.clock());
        options.runtime.budget.max_calls = 2;
        AnswerStarReport report = AnswerStar(scenario.query, scenario.catalog,
                                             timed.source(), options);
        out << "-- answer_star max_calls=2\n" << report.Summary() << "\n";
        RenderLedger(report.runtime, timed.clock(), &out);
      }
      if (depth == 1) {
        // max_bindings bounds each literal's output; the message names
        // the literal that first exceeded the cap.
        for (const auto& [label, body] : bodies) {
          TimedBackend timed(scenario);
          ExecutionOptions options =
              GridOptions(parallelism, depth, timed.clock());
          options.max_bindings = 1;
          BindingsResult result = ExecuteForBindings(
              *body, scenario.catalog, timed.source(), options);
          out << "-- bindings " << label << " max_bindings=1\n";
          RenderBindings(result, timed.clock(), &out);
        }
      }
    }
  }
  return out.str();
}

WorkloadGenOptions SmallWorkload(std::uint64_t seed, bool flaky) {
  WorkloadGenOptions gen;
  gen.seed = seed;
  gen.num_queries = 24;
  gen.domain_size = 12;
  gen.tuples_per_relation = 24;
  gen.union_prob = 0.4;
  gen.negation_prob = 0.4;
  if (flaky) {
    gen.flaky_relations = 1;
    gen.flaky_failure_probability = 0.3;
  }
  gen.replay.requests = 60;
  gen.replay.seed = seed;
  return gen;
}

std::string RenderReplay(std::uint64_t seed, bool flaky) {
  const WorkloadSpec spec = GenerateWorkload(SmallWorkload(seed, flaky));
  std::ostringstream out;
  out << "# workload seed=" << seed << (flaky ? " flaky" : "") << "\n";
  for (std::size_t parallelism : {std::size_t{1}, std::size_t{4}}) {
    for (std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
      WorkloadReplayOptions options;
      options.daemon.runtime.parallelism = parallelism;
      options.daemon.runtime.pipeline_depth = depth;
      const WorkloadReplayReport report = ReplayWorkload(spec, options);
      out << "== parallelism=" << parallelism << " depth=" << depth << "\n";
      out << "ok=" << report.ok << " requests=" << report.requests
          << " answered=" << report.ok_count
          << " errors=" << report.error_count << "\n";
      out << "physical_calls=" << report.physical_calls
          << " hits=" << report.cache_hits
          << " misses=" << report.cache_misses << "\n";
      out << "sim_wall_us=" << report.sim_wall_micros
          << " p50_us=" << report.p50_micros
          << " p95_us=" << report.p95_micros
          << " p99_us=" << report.p99_micros << "\n";
      out << "answers_hash=" << report.answers_hash << "\n";
    }
  }
  return out.str();
}

TEST(GoldenExecutorTest, ScenariosMatchTheGoldens) {
  for (const Scenario& scenario : AllScenarios()) {
    SCOPED_TRACE(scenario.name);
    const std::string rendered = RenderScenario(scenario);
    const std::string golden = ReadGolden(scenario.name + ".txt");
    ASSERT_FALSE(golden.empty()) << "missing golden for " << scenario.name;
    EXPECT_EQ(rendered, golden) << "rendered:\n" << rendered;
  }
}

TEST(GoldenExecutorTest, WorkloadReplaysMatchTheGoldens) {
  for (const auto& [seed, flaky] :
       {std::pair<std::uint64_t, bool>{11, false}, {23, true}}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::string rendered = RenderReplay(seed, flaky);
    const std::string golden =
        ReadGolden("workload_seed" + std::to_string(seed) + ".txt");
    ASSERT_FALSE(golden.empty()) << "missing golden for seed " << seed;
    EXPECT_EQ(rendered, golden) << "rendered:\n" << rendered;
  }
}

}  // namespace
}  // namespace ucqn
