// The in-process replay engine: request accounting, the simulated-clock
// percentiles and cache-hit curves, determinism, the cost-model A/B
// contract (plans move calls, never answers), and the concurrent replay
// path (also exercised under ThreadSanitizer via the `concurrency`
// label), and the same loop driven through the wire encoding.

#include "gen/workload_replay.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "eval/source.h"
#include "gen/workload.h"
#include "server/daemon.h"
#include "server/protocol.h"

namespace ucqn {
namespace {

WorkloadSpec SmallWorkload(std::uint64_t requests = 200,
                           double update_rate = 0.0) {
  WorkloadGenOptions options;
  options.seed = 11;
  options.chain_length = 4;
  options.enumerable_relations = 2;
  options.decoy_relations = 2;
  options.domain_size = 12;
  options.tuples_per_relation = 20;
  options.num_queries = 30;
  options.latency_micros = 100;
  options.slow_relations = 0;
  options.failure_probability = 0.0;
  options.replay.requests = requests;
  options.replay.tenants = 2;
  options.update_rate = update_rate;
  return GenerateWorkload(options);
}

TEST(WorkloadReplayTest, AccountsForEveryRequest) {
  const WorkloadSpec spec = SmallWorkload();
  WorkloadReplayOptions options;
  options.windows = 4;
  const WorkloadReplayReport report = ReplayWorkload(spec, options);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.requests, 200u);
  EXPECT_EQ(report.ok_count +  report.error_count + report.shed_count +
                report.quota_count,
            200u);
  EXPECT_EQ(report.ok_count, 200u);  // no faults, no limits
  // Injected latency accrues on the simulated clock only.
  EXPECT_GT(report.sim_wall_micros, 0u);
  EXPECT_GT(report.physical_calls, 0u);
  ASSERT_EQ(report.windows.size(), 4u);
  std::uint64_t windowed = 0;
  for (const ReplayWindow& window : report.windows) {
    windowed += window.requests;
  }
  EXPECT_EQ(windowed, 200u);
  // Percentiles are ordered (serial replay reports them).
  EXPECT_LE(report.p50_micros, report.p95_micros);
  EXPECT_LE(report.p95_micros, report.p99_micros);
  // The JSON report carries the headline fields.
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"p99_us\""), std::string::npos);
  EXPECT_NE(json.find("\"hit_curve\""), std::string::npos);
}

TEST(WorkloadReplayTest, ReplayIsDeterministic) {
  const WorkloadSpec spec = SmallWorkload();
  const WorkloadReplayReport first = ReplayWorkload(spec, {});
  const WorkloadReplayReport second = ReplayWorkload(spec, {});
  ASSERT_TRUE(first.ok && second.ok);
  EXPECT_EQ(first.answers_hash, second.answers_hash);
  EXPECT_EQ(first.sim_wall_micros, second.sim_wall_micros);
  EXPECT_EQ(first.physical_calls, second.physical_calls);
}

TEST(WorkloadReplayTest, CostModelsMoveCallsNeverAnswers) {
  const WorkloadSpec spec = SmallWorkload();
  WorkloadReplayOptions fixed;
  fixed.daemon.adaptive_cost_model = false;
  WorkloadReplayOptions fallback;
  fallback.daemon.fanout_feedback = false;
  WorkloadReplayOptions informed;  // adaptive with feedback: the default
  const WorkloadReplayReport a = ReplayWorkload(spec, fixed);
  const WorkloadReplayReport b = ReplayWorkload(spec, fallback);
  const WorkloadReplayReport c = ReplayWorkload(spec, informed);
  ASSERT_TRUE(a.ok && b.ok && c.ok);
  EXPECT_EQ(a.ok_count, spec.replay.requests);
  // The whole A/B contract in one line each: byte-identical answers...
  EXPECT_EQ(a.answers_hash, b.answers_hash);
  EXPECT_EQ(a.answers_hash, c.answers_hash);
  // ...and the informed model never needs more backend calls than the
  // fallback on this workload (usually strictly fewer).
  EXPECT_LE(c.physical_calls, b.physical_calls);
}

TEST(WorkloadReplayTest, RejectsEmptyWorkloads) {
  WorkloadSpec empty;
  EXPECT_FALSE(ReplayWorkload(empty, {}).ok);
}

TEST(WorkloadReplayTest, ConcurrentReplayMatchesSerialAnswers) {
  // Four client threads hammer one daemon; the XOR digest is completion-
  // order independent, so it must equal the serial run's bit for bit.
  // (This is the test the tsan gate replays under ThreadSanitizer.)
  const WorkloadSpec spec = SmallWorkload(400);
  WorkloadReplayOptions serial;
  const WorkloadReplayReport baseline = ReplayWorkload(spec, serial);
  ASSERT_TRUE(baseline.ok);
  WorkloadReplayOptions concurrent;
  concurrent.threads = 4;
  concurrent.daemon.disjunct_concurrency = 2;
  const WorkloadReplayReport report = ReplayWorkload(spec, concurrent);
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.ok_count, 400u);
  EXPECT_EQ(report.answers_hash, baseline.answers_hash);
  // Concurrent replays skip the per-request sim percentiles (interleaved
  // clock reads would attribute other threads' waits), and say so.
  EXPECT_EQ(report.p99_micros, 0u);
}

TEST(WorkloadReplayTest, AdmissionAndQuotaLimitsSurfaceInTheReport) {
  // One in-flight slot, one queue slot, four threads: concurrent
  // arrivals must shed, and the report's buckets still account for
  // every request. Whether any two requests actually overlap is up to
  // the scheduler — a loaded single-CPU host can serialize all four
  // threads — so retry a few times and require a shed across the
  // attempts; accounting must hold on every attempt.
  const WorkloadSpec spec = SmallWorkload(200);
  WorkloadReplayOptions options;
  options.threads = 4;
  options.daemon.admission.max_in_flight = 1;
  options.daemon.admission.max_queued = 1;
  std::uint64_t shed = 0;
  for (int attempt = 0; attempt < 5 && shed == 0; ++attempt) {
    const WorkloadReplayReport report = ReplayWorkload(spec, options);
    ASSERT_TRUE(report.ok);
    EXPECT_EQ(report.ok_count + report.error_count + report.shed_count +
                  report.quota_count,
              200u);
    shed = report.shed_count;
  }
  EXPECT_GT(shed, 0u);
}

TEST(WorkloadReplayTest, DeltaStreamIsAppliedDuringReplay) {
  WorkloadGenOptions options;
  options.seed = 11;
  options.chain_length = 4;
  options.enumerable_relations = 2;
  options.decoy_relations = 2;
  options.domain_size = 12;
  options.tuples_per_relation = 20;
  options.num_queries = 30;
  options.latency_micros = 100;
  options.slow_relations = 0;
  options.replay.requests = 200;
  options.replay.tenants = 2;
  options.update_rate = 0.15;
  const WorkloadSpec spec = GenerateWorkload(options);
  ASSERT_FALSE(spec.deltas.empty());

  std::set<std::uint64_t> batch_indices;
  std::set<std::pair<std::uint64_t, std::string>> batches;
  for (const WorkloadDeltaEvent& event : spec.deltas) {
    batch_indices.insert(event.at_request);
    batches.insert({event.at_request, event.relation});
  }

  const WorkloadReplayReport report = ReplayWorkload(spec, {});
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.ok_count, 200u);
  // One delta op per (request index, relation) group, all accepted —
  // the replay owns a private mutable copy of the instance.
  EXPECT_EQ(report.deltas_applied, batches.size());
  EXPECT_EQ(report.delta_error_count, 0u);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"deltas_applied\""), std::string::npos);

  // The updates change what the standing corpus of queries sees: the
  // same requests against the frozen v1 instance answer differently.
  WorkloadSpec frozen = spec;
  frozen.deltas.clear();
  const WorkloadReplayReport static_report = ReplayWorkload(frozen, {});
  ASSERT_TRUE(static_report.ok) << static_report.error;
  EXPECT_NE(report.answers_hash, static_report.answers_hash);

  // And deterministic: replaying the delta'd workload again lands on the
  // same digest.
  const WorkloadReplayReport again = ReplayWorkload(spec, {});
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.answers_hash, report.answers_hash);
  EXPECT_EQ(again.deltas_applied, report.deltas_applied);
}

TEST(WorkloadReplayTest, WireEncodedReplayMatchesInProcess) {
  // The --via-daemon transport in miniature: every request, delta batches
  // included, crosses as a protocol line (ServiceRequest::ToJsonLine →
  // QueryDaemon::SubmitLine → ParseServiceResponse) to a daemon built
  // from the same options. Same loop, so the same answers and calls; only
  // the simulated-time fields stay in-process.
  const WorkloadSpec spec = SmallWorkload(200, 0.15);
  ASSERT_FALSE(spec.deltas.empty());
  WorkloadReplayOptions options;
  options.inject_faults = false;  // ucqnd's backend has no fault layer
  const WorkloadReplayReport direct = ReplayWorkload(spec, options);

  Database database = spec.database;
  DatabaseSource backend(&database, &spec.catalog);
  QueryDaemon::Options daemon_options = options.daemon;
  daemon_options.database = &database;
  QueryDaemon daemon(&spec.catalog, &backend, daemon_options);
  const WorkloadReplayReport wire = ReplayWorkload(
      spec, options, [&daemon](const ServiceRequest& request) {
        std::string error;
        std::optional<ServiceResponse> response = ParseServiceResponse(
            daemon.SubmitLine(request.ToJsonLine()), &error);
        EXPECT_TRUE(response.has_value()) << error;
        return response.value_or(ServiceResponse{});
      });

  ASSERT_TRUE(direct.ok) << direct.error;
  ASSERT_TRUE(wire.ok) << wire.error;
  EXPECT_EQ(wire.ok_count, 200u);
  EXPECT_GT(wire.deltas_applied, 0u);
  EXPECT_EQ(wire.delta_error_count, 0u);
  EXPECT_EQ(wire.deltas_applied, direct.deltas_applied);
  EXPECT_EQ(wire.answers_hash, direct.answers_hash);
  EXPECT_EQ(wire.physical_calls, direct.physical_calls);
  EXPECT_EQ(wire.cache_hits, direct.cache_hits);
  EXPECT_EQ(wire.sim_wall_micros, 0u);
  EXPECT_EQ(wire.p99_micros, 0u);
}

}  // namespace
}  // namespace ucqn
