#ifndef UCQN_BENCH_E2E_WORKLOADS_H_
#define UCQN_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "eval/database.h"
#include "gen/workload.h"
#include "runtime/clock.h"
#include "runtime/fault_injection.h"
#include "server/daemon.h"

namespace ucqn::e2e {

// One named traffic mix of the end-to-end benchmark.
struct WorkloadConfig {
  std::string name;
  // Seeds the schema, instance, templates and delta stream, which stay
  // fixed per workload; the run's seed draws the request stream over
  // them (and defaults to this value). Runs with different seeds thus
  // measure the same data under a different arrival order.
  std::uint64_t data_seed = 0;
  // Closed-loop clients: each sends its next request when the previous
  // one returns. Only serial (1-client) workloads report simulated
  // latencies — concurrent clients interleave on the shared clock.
  int clients = 1;
  // Requests replayed by set-up before measuring (the stream's first
  // ~10% at the nominal rate), so caches and observed stats are warm.
  std::uint64_t warmup_requests = 0;
  // Upper bound on the measured rate, sizing the stream so a run of any
  // length does not exhaust it.
  std::uint64_t max_rate_per_second = 0;
  // Templates registered as standing queries during set-up.
  std::size_t standing_queries = 0;
  // Daemon configuration.
  std::uint64_t cache_ttl_micros = 0;
  std::size_t max_in_flight = 0;
  std::size_t max_queued = 0;
};

const std::vector<WorkloadConfig>& Workloads();
// nullptr for an unknown name.
const WorkloadConfig* FindWorkload(const std::string& name);

// The generated inputs of one run: the workload file set-up parses. The
// text is generated once per run; set-up time starts at parsing it.
struct WorkloadInputs {
  std::string text;
  // Templates that repeat in the stream are what plan or cache reuse
  // could exploit; the share is reported per run.
  std::size_t templates = 0;
};

// `stream_seed` draws the request stream, which holds the warm-up plus
// `seconds` at the workload's maximum rate. `scale` shrinks warm-up and
// template counts for the smoke test (1 = full size).
WorkloadInputs GenerateInputs(const WorkloadConfig& config,
                              std::uint64_t stream_seed, double seconds,
                              double scale);

// A set-up daemon: the parsed workload, a private copy of its instance
// behind a fault-injecting transport on a simulated clock, the daemon,
// and the request stream as protocol lines. Non-movable: the daemon holds
// pointers into it.
class Deployment {
 public:
  // Inserts a decorator between the fault-injecting transport and the
  // daemon (the traced run's backend timer); returns the new bottom of
  // the daemon's stack.
  using BackendWrapper = std::function<std::unique_ptr<Source>(Source*)>;

  // Parses `text` and builds everything, with the stream's first
  // `warmup` requests drawn from the workload's data seed; registers the
  // standing queries. Returns nullptr and sets `*error` on a malformed
  // workload or a failed registration.
  static std::unique_ptr<Deployment> Create(const WorkloadConfig& config,
                                            const std::string& text,
                                            std::uint64_t warmup,
                                            const BackendWrapper& wrap,
                                            std::string* error);

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  QueryDaemon& daemon() { return *daemon_; }
  const WorkloadSpec& spec() const { return spec_; }
  SimulatedClock& clock() { return clock_; }
  // Calls that reached the (fault-injecting) transport so far.
  std::uint64_t backend_calls() const { return faults_->fault_stats().calls; }
  // The source the daemon's sessions stack their views on.
  Source* backend() { return top_; }

  std::uint64_t stream_size() const { return sequence_.size(); }
  std::size_t template_of(std::uint64_t index) const {
    return sequence_[index].query_index;
  }
  // The protocol line of request `index` of the stream.
  std::string QueryLine(std::uint64_t index) const;
  // `delta` op lines to submit just before request `index` (empty for
  // most indices).
  const std::vector<std::string>& DeltaLines(std::uint64_t index) const;
  // The grouped delta batches, by the request index they precede.
  const std::map<std::uint64_t, std::vector<RelationDelta>>& deltas() const {
    return delta_batches_;
  }
  // Ids of the registered standing queries; each is template i under
  // tenant t0.
  const std::vector<std::string>& standing_ids() const { return standing_ids_; }

 private:
  Deployment() = default;

  WorkloadSpec spec_;
  Database database_;
  SimulatedClock clock_;
  std::unique_ptr<DatabaseSource> source_;
  std::unique_ptr<FaultInjectingSource> faults_;
  std::unique_ptr<Source> wrapper_;
  Source* top_ = nullptr;
  std::unique_ptr<QueryDaemon> daemon_;
  std::vector<ReplayRequest> sequence_;
  // Per-template JSON-quoted query text, so building a line is a concat.
  std::vector<std::string> quoted_queries_;
  std::map<std::uint64_t, std::vector<RelationDelta>> delta_batches_;
  std::map<std::uint64_t, std::vector<std::string>> delta_lines_;
  std::vector<std::string> standing_ids_;
};

}  // namespace ucqn::e2e

#endif  // UCQN_BENCH_E2E_WORKLOADS_H_
