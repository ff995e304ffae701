#include "gen/workload_replay.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <thread>

#include "runtime/fault_injection.h"

namespace ucqn {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t FnvMix(std::uint64_t hash, const std::string& bytes) {
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

// Digest of one ok response, XOR-combined into the replay digest so the
// total is independent of completion order (concurrent replays finish in
// whatever order the scheduler picks, but answer the same).
std::uint64_t ResponseHash(std::uint64_t request_index,
                           const ServiceResponse& response) {
  std::uint64_t hash = kFnvOffset;
  hash = FnvMix(hash, std::to_string(request_index));
  for (const Tuple& tuple : response.under) {
    hash = FnvMix(hash, "u" + TupleToString(tuple));
  }
  for (const Tuple& tuple : response.over) {
    hash = FnvMix(hash, "o" + TupleToString(tuple));
  }
  return hash;
}

// Per-thread accumulation, merged once the thread joins — no shared
// mutable state on the submit path beyond the daemon itself.
struct Partial {
  std::uint64_t ok = 0;
  std::uint64_t error = 0;
  std::uint64_t shed = 0;
  std::uint64_t quota = 0;
  std::uint64_t deltas_applied = 0;
  std::uint64_t delta_errors = 0;
  std::uint64_t physical_calls = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t answers_hash = 0;
  std::vector<ReplayWindow> windows;
};

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

std::string WorkloadReplayReport::ToJson() const {
  std::string out = "{";
  out += "\"ok\": " + std::string(ok ? "true" : "false");
  if (!error.empty()) out += ", \"error\": \"" + error + "\"";
  out += ", \"requests\": " + std::to_string(requests);
  out += ", \"ok_count\": " + std::to_string(ok_count);
  out += ", \"error_count\": " + std::to_string(error_count);
  out += ", \"shed_count\": " + std::to_string(shed_count);
  out += ", \"quota_count\": " + std::to_string(quota_count);
  out += ", \"deltas_applied\": " + std::to_string(deltas_applied);
  out += ", \"delta_errors\": " + std::to_string(delta_error_count);
  out += ", \"sim_wall_us\": " + std::to_string(sim_wall_micros);
  out += ", \"real_seconds\": " + FormatDouble(real_seconds);
  out += ", \"throughput_per_sec\": " + FormatDouble(throughput_per_second);
  out += ", \"physical_calls\": " + std::to_string(physical_calls);
  out += ", \"cache_hits\": " + std::to_string(cache_hits);
  out += ", \"cache_misses\": " + std::to_string(cache_misses);
  out += ", \"p50_us\": " + std::to_string(p50_micros);
  out += ", \"p95_us\": " + std::to_string(p95_micros);
  out += ", \"p99_us\": " + std::to_string(p99_micros);
  out += ", \"answers_hash\": " + std::to_string(answers_hash);
  out += ", \"hit_curve\": [";
  for (std::size_t w = 0; w < windows.size(); ++w) {
    if (w > 0) out += ", ";
    out += "{\"requests\": " + std::to_string(windows[w].requests) +
           ", \"cache_hits\": " + std::to_string(windows[w].cache_hits) +
           ", \"cache_misses\": " + std::to_string(windows[w].cache_misses) +
           ", \"physical_calls\": " + std::to_string(windows[w].physical_calls) +
           ", \"hit_rate\": " + FormatDouble(windows[w].hit_rate) + "}";
  }
  out += "]}";
  return out;
}

WorkloadReplayReport ReplayWorkload(const WorkloadSpec& spec,
                                    const WorkloadReplayOptions& options,
                                    const ReplaySubmit& submit,
                                    Clock* sim_clock) {
  WorkloadReplayReport report;
  if (spec.queries.empty()) {
    report.error = "workload declares no queries";
    return report;
  }
  const std::uint64_t sim_start =
      sim_clock != nullptr ? sim_clock->NowMicros() : 0;

  // One `delta` op per (request index, relation) group, applied by the
  // thread that owns the request just before it submits it; both
  // transports consume this one grouping. Deletes land before inserts
  // inside a batch — the daemon's own convention.
  std::map<std::uint64_t, std::vector<ServiceRequest>> delta_batches;
  for (const WorkloadDeltaEvent& event : spec.deltas) {
    std::vector<ServiceRequest>& batch = delta_batches[event.at_request];
    ServiceRequest* request = nullptr;
    for (ServiceRequest& candidate : batch) {
      if (candidate.relation == event.relation) {
        request = &candidate;
        break;
      }
    }
    if (request == nullptr) {
      batch.emplace_back();
      request = &batch.back();
      request->op = ServiceRequest::Op::kDelta;
      request->relation = event.relation;
      request->id = "delta@" + std::to_string(event.at_request);
    }
    (event.insert ? request->insert_tuples : request->delete_tuples)
        .push_back(event.tuple);
  }

  const std::vector<ReplayRequest> sequence =
      BuildRequestSequence(spec, options.max_requests);
  const std::uint64_t n = sequence.size();
  report.requests = n;
  const int window_count =
      static_cast<int>(std::min<std::uint64_t>(
          std::max(options.windows, 1), std::max<std::uint64_t>(n, 1)));

  const int threads = std::max(options.threads, 1);
  std::vector<Partial> partials(static_cast<std::size_t>(threads));
  std::vector<std::vector<std::uint64_t>> latencies(
      static_cast<std::size_t>(threads));

  const auto real_start = std::chrono::steady_clock::now();
  auto run_slice = [&](int thread_index) {
    Partial& partial = partials[static_cast<std::size_t>(thread_index)];
    partial.windows.assign(static_cast<std::size_t>(window_count),
                           ReplayWindow{});
    std::vector<std::uint64_t>& lat =
        latencies[static_cast<std::size_t>(thread_index)];
    for (std::uint64_t r = static_cast<std::uint64_t>(thread_index); r < n;
         r += static_cast<std::uint64_t>(threads)) {
      const ReplayRequest& replay_request = sequence[r];
      const auto batch_it = delta_batches.find(r);
      if (batch_it != delta_batches.end()) {
        for (const ServiceRequest& delta_request : batch_it->second) {
          const ServiceResponse delta_response = submit(delta_request);
          if (delta_response.status == ServiceResponse::Status::kOk) {
            ++partial.deltas_applied;
          } else {
            ++partial.delta_errors;
          }
        }
      }
      ServiceRequest request;
      request.op = ServiceRequest::Op::kQuery;
      request.id = std::to_string(r);
      request.tenant = "t" + std::to_string(replay_request.tenant);
      request.query = spec.queries[replay_request.query_index];
      request.include_answers = true;
      const std::uint64_t before =
          sim_clock != nullptr ? sim_clock->NowMicros() : 0;
      const ServiceResponse response = submit(request);
      if (threads == 1 && sim_clock != nullptr) {
        lat.push_back(sim_clock->NowMicros() - before);
      }
      ReplayWindow& window =
          partial.windows[static_cast<std::size_t>(
              r * static_cast<std::uint64_t>(window_count) / n)];
      ++window.requests;
      switch (response.status) {
        case ServiceResponse::Status::kOk:
          ++partial.ok;
          partial.answers_hash ^= ResponseHash(r, response);
          partial.physical_calls += response.physical_calls;
          partial.cache_hits += response.cache_hits;
          partial.cache_misses += response.cache_misses;
          window.cache_hits += response.cache_hits;
          window.cache_misses += response.cache_misses;
          window.physical_calls += response.physical_calls;
          break;
        case ServiceResponse::Status::kShed:
          ++partial.shed;
          break;
        case ServiceResponse::Status::kQuotaRefused:
          ++partial.quota;
          break;
        case ServiceResponse::Status::kError:
        case ServiceResponse::Status::kDraining:
          ++partial.error;
          break;
      }
    }
  };

  if (threads == 1) {
    run_slice(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(run_slice, t);
    for (std::thread& t : pool) t.join();
  }
  const auto real_end = std::chrono::steady_clock::now();

  report.windows.assign(static_cast<std::size_t>(window_count), ReplayWindow{});
  for (const Partial& partial : partials) {
    report.ok_count += partial.ok;
    report.error_count += partial.error;
    report.shed_count += partial.shed;
    report.quota_count += partial.quota;
    report.deltas_applied += partial.deltas_applied;
    report.delta_error_count += partial.delta_errors;
    report.physical_calls += partial.physical_calls;
    report.cache_hits += partial.cache_hits;
    report.cache_misses += partial.cache_misses;
    report.answers_hash ^= partial.answers_hash;
    for (std::size_t w = 0; w < partial.windows.size(); ++w) {
      report.windows[w].requests += partial.windows[w].requests;
      report.windows[w].cache_hits += partial.windows[w].cache_hits;
      report.windows[w].cache_misses += partial.windows[w].cache_misses;
      report.windows[w].physical_calls += partial.windows[w].physical_calls;
    }
  }
  for (ReplayWindow& window : report.windows) {
    const std::uint64_t traffic = window.cache_hits + window.cache_misses;
    window.hit_rate = traffic == 0 ? 0.0
                                   : static_cast<double>(window.cache_hits) /
                                         static_cast<double>(traffic);
  }

  if (threads == 1 && !latencies[0].empty()) {
    std::vector<std::uint64_t>& lat = latencies[0];
    std::sort(lat.begin(), lat.end());
    auto percentile = [&](double p) {
      const std::size_t index = std::min(
          lat.size() - 1,
          static_cast<std::size_t>(p * static_cast<double>(lat.size())));
      return lat[index];
    };
    report.p50_micros = percentile(0.50);
    report.p95_micros = percentile(0.95);
    report.p99_micros = percentile(0.99);
  }

  if (sim_clock != nullptr) {
    report.sim_wall_micros = sim_clock->NowMicros() - sim_start;
  }
  report.real_seconds =
      std::chrono::duration<double>(real_end - real_start).count();
  report.throughput_per_second =
      report.real_seconds > 0.0
          ? static_cast<double>(n) / report.real_seconds
          : 0.0;
  report.ok = true;
  return report;
}

WorkloadReplayReport ReplayWorkload(const WorkloadSpec& spec,
                                    const WorkloadReplayOptions& options) {
  SimulatedClock clock;
  // Private copy: the delta stream mutates the instance as the replay
  // advances, and the caller's spec must stay the request-0 snapshot.
  Database database = spec.database;
  DatabaseSource backend(&database, &spec.catalog);
  FaultInjectingSource faulty(&backend, spec.faults, &clock);
  Source* transport = options.inject_faults
                          ? static_cast<Source*>(&faulty)
                          : static_cast<Source*>(&backend);

  QueryDaemon::Options daemon_options = options.daemon;
  daemon_options.runtime.clock = &clock;
  daemon_options.cache.clock = &clock;
  daemon_options.database = &database;
  QueryDaemon daemon(&spec.catalog, transport, daemon_options);
  return ReplayWorkload(
      spec, options,
      [&daemon](const ServiceRequest& request) {
        return daemon.Submit(request);
      },
      &clock);
}

}  // namespace ucqn
