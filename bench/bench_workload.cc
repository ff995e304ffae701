// Workload-scale replay bench (EXPERIMENTS.md E20): stream a generated
// Zipf-skewed UCQ¬ workload through the in-process QueryDaemon on the
// simulated clock, three ways — static cost model, adaptive without
// fanout feedback (the 1000-tuple fallback), adaptive with observed
// fanouts — and record throughput, simulated percentiles, cache-hit
// curves, and the A/B in the `workload` block of BENCH_runtime.json.
//
// The three runs must agree to the bit on answers (the order-independent
// replay digest): the cost model moves calls around, never answers.
//
// The full run streams kDefaultRequests requests per configuration; the
// tier-1 smoke caps it with UCQN_BENCH_WORKLOAD_REQUESTS so the bench
// cannot rot between perf-focused PRs without costing minutes of ctest.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ast/parser.h"
#include "eval/answer_star.h"
#include "eval/delta.h"
#include "gen/workload.h"
#include "gen/workload_replay.h"
#include "runtime/clock.h"
#include "runtime/fault_injection.h"

namespace ucqn {
namespace {

constexpr std::uint64_t kDefaultRequests = 100000;

std::uint64_t RequestBudget() {
  const char* env = std::getenv("UCQN_BENCH_WORKLOAD_REQUESTS");
  if (env == nullptr || *env == '\0') return kDefaultRequests;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0' || value == 0) return kDefaultRequests;
  return static_cast<std::uint64_t>(value);
}

// The bench workload: an adversarial chain where even links can be
// scanned or probed and small true cardinalities mean the 1000-tuple
// fallback overprices every scan, so the fallback planners probe where
// one scan would do. Uniform service latency keeps the comparison
// about call counts. No failures — every request must come back ok
// and the digests must match across configurations.
WorkloadGenOptions BenchGenOptions(std::uint64_t requests) {
  WorkloadGenOptions options;
  options.seed = 20;
  options.chain_length = 6;
  options.enumerable_relations = 2;
  options.decoy_relations = 4;
  options.domain_size = 16;
  options.tuples_per_relation = 32;
  options.num_queries = 400;
  options.max_literals = 4;
  options.negation_prob = 0.25;
  options.constant_prob = 0.6;
  options.union_prob = 0.2;
  options.zipf_s = 1.1;
  options.latency_micros = 200;
  options.failure_probability = 0.0;
  options.slow_relations = 0;
  options.replay.requests = requests;
  options.replay.zipf_s = 1.0;
  options.replay.tenants = 4;
  return options;
}

WorkloadSpec BenchWorkload(std::uint64_t requests) {
  return GenerateWorkload(BenchGenOptions(requests));
}

struct ConfigRun {
  const char* label;
  WorkloadReplayReport report;
};

ConfigRun RunConfig(const WorkloadSpec& spec, const char* label,
                    bool adaptive, bool fanout_feedback) {
  WorkloadReplayOptions options;
  options.daemon.adaptive_cost_model = adaptive;
  options.daemon.fanout_feedback = fanout_feedback;
  // A short simulated TTL keeps the cache honest at workload scale:
  // popular templates still hit, but plan quality keeps paying rent.
  options.daemon.cache.default_ttl_micros = 1000;
  ConfigRun run{label, ReplayWorkload(spec, options)};
  if (!run.report.ok) {
    std::fprintf(stderr, "bench_workload: %s replay failed: %s\n", label,
                 run.report.error.c_str());
  }
  return run;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

// BENCH_runtime.json is owned by bench_runtime; this bench only merges
// (or replaces) its own blocks, which are canonically last in the
// object (`workload` then `delta`), so the existing suffix can be
// truncated and re-appended. main() always rewrites them in that order,
// so truncating at `workload` taking the old `delta` block with it is
// fine — the next merge puts a fresh one back.
void MergeBlock(const char* path, const char* key, const std::string& block) {
  std::string existing;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      existing = buffer.str();
    }
  }
  const std::string tag = std::string(", \"") + key + "\":";
  const std::string::size_type tagged = existing.find(tag);
  if (tagged != std::string::npos) {
    existing.erase(tagged);
  } else {
    while (!existing.empty() &&
           (existing.back() == '\n' || existing.back() == ' ')) {
      existing.pop_back();
    }
    if (!existing.empty() && existing.back() == '}') existing.pop_back();
  }
  if (existing.empty()) existing = "{\"bench\": \"ucqn\"";
  const std::string merged =
      existing + ", \"" + key + "\": " + block + "}\n";
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_workload: cannot write %s\n", path);
    return;
  }
  std::fputs(merged.c_str(), out);
  std::fclose(out);
  std::printf("merged %s block into %s\n", key, path);
}

void WriteWorkloadBlock(const char* path) {
  const std::uint64_t requests = RequestBudget();
  const WorkloadSpec spec = BenchWorkload(requests);
  std::vector<ConfigRun> runs;
  runs.push_back(RunConfig(spec, "static", false, false));
  runs.push_back(RunConfig(spec, "adaptive_fallback", true, false));
  runs.push_back(RunConfig(spec, "adaptive_fanout", true, true));
  for (const ConfigRun& run : runs) {
    if (!run.report.ok) return;
  }
  const std::uint64_t baseline_hash = runs[0].report.answers_hash;

  std::string block = "{";
  block += "\"requests\": " + std::to_string(requests);
  block += ", \"templates\": " + std::to_string(spec.queries.size());
  block += ", \"zipf_s\": " + FormatDouble(spec.replay.zipf_s);
  block += ", \"tenants\": " + std::to_string(spec.replay.tenants);
  block += ", \"runs\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const WorkloadReplayReport& report = runs[i].report;
    if (i > 0) block += ", ";
    block += "{\"config\": \"" + std::string(runs[i].label) + "\"";
    block += ", \"ok_count\": " + std::to_string(report.ok_count);
    block += ", \"shed_count\": " + std::to_string(report.shed_count);
    block += ", \"quota_count\": " + std::to_string(report.quota_count);
    block += ", \"sim_wall_us\": " + std::to_string(report.sim_wall_micros);
    block += ", \"physical_calls\": " + std::to_string(report.physical_calls);
    block += ", \"cache_hits\": " + std::to_string(report.cache_hits);
    block += ", \"cache_misses\": " + std::to_string(report.cache_misses);
    block += ", \"p50_us\": " + std::to_string(report.p50_micros);
    block += ", \"p95_us\": " + std::to_string(report.p95_micros);
    block += ", \"p99_us\": " + std::to_string(report.p99_micros);
    block += ", \"throughput_per_sec\": " +
             FormatDouble(report.throughput_per_second);
    block += ", \"answers_match\": ";
    block += report.answers_hash == baseline_hash ? "true" : "false";
    block += ", \"hit_curve\": [";
    for (std::size_t w = 0; w < report.windows.size(); ++w) {
      if (w > 0) block += ", ";
      block += FormatDouble(report.windows[w].hit_rate);
    }
    block += "]}";
  }
  block += "]}";
  MergeBlock(path, "workload", block);

  for (const ConfigRun& run : runs) {
    std::printf(
        "%-17s sim_wall %llu us, %llu calls, p99 %llu us, answers %s\n",
        run.label,
        static_cast<unsigned long long>(run.report.sim_wall_micros),
        static_cast<unsigned long long>(run.report.physical_calls),
        static_cast<unsigned long long>(run.report.p99_micros),
        run.report.answers_hash == baseline_hash ? "match" : "MISMATCH");
  }
}

// The delta A/B (docs/RUNTIME.md §12): a ~1%-update stream over the
// same adversarial instance, answered two ways for a pool of standing
// queries. The `maintain` arm pushes each batch through
// StandingQuery::ApplyDeltas (unaffected disjuncts never re-run); the
// `rerun` arm is invalidate-and-rerun — after each batch it re-answers
// every standing query whose relations the batch touched from scratch.
// Both arms charge the same per-call service latency to a simulated
// clock. The acceptance bar: the maintain arm spends >= 5x fewer
// physical calls and less simulated wall-clock, with the maintained
// brackets byte-identical to the rerun arm's after every batch.
void WriteDeltaBlock(const char* path) {
  // The ratio story saturates long before 100k requests; cap the stream
  // so the full bench stays minutes, not hours. The smoke's env cap
  // still applies below this.
  const std::uint64_t requests =
      std::min<std::uint64_t>(RequestBudget(), 20000);
  WorkloadGenOptions gen = BenchGenOptions(requests);
  gen.update_rate = 0.01;
  const WorkloadSpec spec = GenerateWorkload(gen);
  if (spec.deltas.empty()) {
    std::fprintf(stderr, "bench_workload: delta arm has no update events\n");
    return;
  }

  // The standing pool: the first few templates that parse.
  std::vector<UnionQuery> queries;
  for (const std::string& text : spec.queries) {
    std::string error;
    std::optional<UnionQuery> query = ParseUnionQuery(text, &error);
    if (query.has_value()) queries.push_back(std::move(*query));
    if (queries.size() == 8) break;
  }
  if (queries.empty()) {
    std::fprintf(stderr, "bench_workload: no parsable templates\n");
    return;
  }

  // Group the event stream into per-request-index batches, one
  // RelationDelta per touched relation — the same grouping the workload
  // replay and the daemon's delta op use.
  std::map<std::uint64_t, std::vector<RelationDelta>> batches;
  for (const WorkloadDeltaEvent& event : spec.deltas) {
    std::vector<RelationDelta>& groups = batches[event.at_request];
    RelationDelta* group = nullptr;
    for (RelationDelta& candidate : groups) {
      if (candidate.relation == event.relation) group = &candidate;
    }
    if (group == nullptr) {
      groups.emplace_back();
      groups.back().relation = event.relation;
      group = &groups.back();
    }
    (event.insert ? group->inserts : group->deletes).push_back(event.tuple);
  }

  // Two identical instances, clocks, and latency-charging transports.
  Database db_maintain = spec.database;
  Database db_rerun = spec.database;
  SimulatedClock clock_maintain;
  SimulatedClock clock_rerun;
  DatabaseSource inner_maintain(&db_maintain, &spec.catalog);
  DatabaseSource inner_rerun(&db_rerun, &spec.catalog);
  FaultInjectingSource source_maintain(&inner_maintain, spec.faults,
                                       &clock_maintain);
  FaultInjectingSource source_rerun(&inner_rerun, spec.faults, &clock_rerun);

  std::string error;
  std::vector<std::unique_ptr<StandingQuery>> standing;
  for (const UnionQuery& query : queries) {
    std::unique_ptr<StandingQuery> one =
        StandingQuery::Build(query, spec.catalog, &source_maintain, &error);
    if (one == nullptr) {
      std::fprintf(stderr, "bench_workload: standing build failed: %s\n",
                   error.c_str());
      return;
    }
    standing.push_back(std::move(one));
  }
  for (const UnionQuery& query : queries) {
    const AnswerStarReport initial =
        AnswerStar(query, spec.catalog, &source_rerun);
    if (!initial.ok) {
      std::fprintf(stderr, "bench_workload: initial rerun failed: %s\n",
                   initial.error.c_str());
      return;
    }
  }
  // Both arms paid their initial full evaluation; the A/B measures the
  // update phase only.
  const std::uint64_t maintain_base_calls = inner_maintain.stats().calls;
  const std::uint64_t rerun_base_calls = inner_rerun.stats().calls;
  const std::uint64_t maintain_base_wall = clock_maintain.NowMicros();
  const std::uint64_t rerun_base_wall = clock_rerun.NowMicros();

  bool answers_match = true;
  std::uint64_t applied_batches = 0;
  std::uint64_t reruns = 0;
  for (const auto& [index, groups] : batches) {
    std::vector<AppliedDelta> applied;
    std::set<std::string> changed;
    for (const RelationDelta& group : groups) {
      std::optional<AppliedDelta> one_m =
          ApplyDelta(&db_maintain, group, &error);
      std::optional<AppliedDelta> one_r = ApplyDelta(&db_rerun, group, &error);
      if (!one_m.has_value() || !one_r.has_value()) {
        std::fprintf(stderr, "bench_workload: delta rejected: %s\n",
                     error.c_str());
        return;
      }
      if (!one_m->empty()) {
        changed.insert(group.relation);
        applied.push_back(std::move(*one_m));
      }
    }
    if (applied.empty()) continue;
    ++applied_batches;
    for (std::unique_ptr<StandingQuery>& query : standing) {
      if (!query->ApplyDeltas(applied, &source_maintain, &error)) {
        std::fprintf(stderr, "bench_workload: maintenance failed: %s\n",
                     error.c_str());
        return;
      }
    }
    for (std::size_t i = 0; i < queries.size(); ++i) {
      bool affected = false;
      for (const std::string& relation : changed) {
        if (standing[i]->relations().count(relation) != 0) affected = true;
      }
      if (!affected) continue;
      ++reruns;
      const AnswerStarReport fresh =
          AnswerStar(queries[i], spec.catalog, &source_rerun);
      if (!fresh.ok) {
        std::fprintf(stderr, "bench_workload: rerun failed: %s\n",
                     fresh.error.c_str());
        return;
      }
      const AnswerBracket maintained = standing[i]->Answers();
      if (maintained.under != fresh.under || maintained.over != fresh.over ||
          maintained.delta != fresh.delta ||
          maintained.complete != fresh.complete) {
        answers_match = false;
      }
    }
  }

  const std::uint64_t maintain_calls =
      inner_maintain.stats().calls - maintain_base_calls;
  const std::uint64_t rerun_calls =
      inner_rerun.stats().calls - rerun_base_calls;
  const std::uint64_t maintain_wall =
      clock_maintain.NowMicros() - maintain_base_wall;
  const std::uint64_t rerun_wall = clock_rerun.NowMicros() - rerun_base_wall;
  const double call_ratio =
      maintain_calls == 0 ? static_cast<double>(rerun_calls)
                          : static_cast<double>(rerun_calls) /
                                static_cast<double>(maintain_calls);

  std::string block = "{";
  block += "\"requests\": " + std::to_string(requests);
  block += ", \"update_rate\": " + FormatDouble(gen.update_rate);
  block += ", \"batches\": " + std::to_string(applied_batches);
  block += ", \"standing_queries\": " + std::to_string(queries.size());
  block += ", \"reruns\": " + std::to_string(reruns);
  block += ", \"maintain\": {\"physical_calls\": " +
           std::to_string(maintain_calls) +
           ", \"sim_wall_us\": " + std::to_string(maintain_wall) + "}";
  block += ", \"rerun\": {\"physical_calls\": " + std::to_string(rerun_calls) +
           ", \"sim_wall_us\": " + std::to_string(rerun_wall) + "}";
  block += ", \"call_ratio\": " + FormatDouble(call_ratio);
  block += ", \"answers_match\": ";
  block += answers_match ? "true" : "false";
  block += "}";
  MergeBlock(path, "delta", block);

  std::printf(
      "delta maintain: %llu calls, %llu us; rerun: %llu calls, %llu us; "
      "ratio %.1fx, answers %s\n",
      static_cast<unsigned long long>(maintain_calls),
      static_cast<unsigned long long>(maintain_wall),
      static_cast<unsigned long long>(rerun_calls),
      static_cast<unsigned long long>(rerun_wall), call_ratio,
      answers_match ? "match" : "MISMATCH");
  if (!answers_match || call_ratio < 5.0 || maintain_wall >= rerun_wall) {
    std::fprintf(stderr,
                 "bench_workload: delta acceptance bar missed "
                 "(need >=5x fewer calls, lower sim wall, matching answers)\n");
    std::exit(1);
  }
}

// Microbench: generator throughput (templates + facts + serialization).
void BM_WorkloadGenerate(benchmark::State& state) {
  WorkloadGenOptions options;
  options.num_queries = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const WorkloadSpec spec = GenerateWorkload(options);
    benchmark::DoNotOptimize(SerializeWorkload(spec).size());
  }
}
BENCHMARK(BM_WorkloadGenerate)->Arg(50)->Arg(200);

// Microbench: small replays per cost model; the interesting numbers are
// simulated and exact, this just keeps the replay path warm in CI.
void BM_WorkloadReplay(benchmark::State& state) {
  WorkloadSpec spec = BenchWorkload(500);
  const bool feedback = state.range(0) != 0;
  for (auto _ : state) {
    WorkloadReplayOptions options;
    options.daemon.fanout_feedback = feedback;
    const WorkloadReplayReport report = ReplayWorkload(spec, options);
    if (!report.ok || report.ok_count != report.requests) {
      state.SkipWithError("replay failed");
      break;
    }
    benchmark::DoNotOptimize(report.answers_hash);
  }
}
BENCHMARK(BM_WorkloadReplay)->Arg(0)->Arg(1);

}  // namespace
}  // namespace ucqn

int main(int argc, char** argv) {
  ucqn::WriteWorkloadBlock("BENCH_runtime.json");
  ucqn::WriteDeltaBlock("BENCH_runtime.json");
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
