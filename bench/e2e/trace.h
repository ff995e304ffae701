#ifndef UCQN_BENCH_E2E_TRACE_H_
#define UCQN_BENCH_E2E_TRACE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "eval/source.h"
#include "util/json.h"
#include "workloads.h"

namespace ucqn::e2e {

// The layer boundaries the traced run times, named after the modules.
// A span's self time is its duration minus the time of the spans it
// caused; kRequest's self time is what no layer span covers.
enum class Span : std::uint8_t {
  kRequest,
  kProtocolDecode,
  kDaemonAdmission,
  kAstParse,
  kSchemaCovers,
  kFeasibilityCompile,
  kCostSnapshot,
  kRuntimeStackBuild,
  kFeasibilityPlanStar,
  kEvalPlanner,
  kEvalExecute,
  kRuntimeStack,
  kBackend,
  kCostObserve,
  kProtocolEncode,
  kDaemonDeltaOp,
};
constexpr std::size_t kSpanCount = 16;
const char* SpanName(Span span);

// Counts taken at the same boundaries as the spans.
struct LayerCounts {
  std::uint64_t queries = 0;
  std::uint64_t writes = 0;
  // Per FeasibleDecisionPath (plans equal, null in Q^o, containment).
  std::array<std::uint64_t, 3> paths{};
  std::uint64_t containment_nodes = 0;
  std::uint64_t answers_with_delta = 0;
  std::uint64_t logical_calls = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_flight_waits = 0;
  std::uint64_t cache_stale_drops = 0;
  std::uint64_t backend_calls = 0;
  std::uint64_t backend_batches = 0;
  std::uint64_t backend_tuples = 0;
  std::uint64_t disjuncts = 0;
  std::uint64_t morsels = 0;
  std::uint64_t antijoin_build = 0;

  void Add(const LayerCounts& other);
};

class Tracer;  // per-client-thread span recorder (trace.cc)

// A transparent Source decorator that times every call into `inner` as
// `span` and counts it: kRuntimeStack above a session's stack counts
// logical calls, kBackend above the transport counts physical calls,
// batches and tuples.
class TimedSource : public Source {
 public:
  TimedSource(Source* inner, Span span) : inner_(inner), span_(span) {}

  FetchResult Fetch(const std::string& relation, const AccessPattern& pattern,
                    const std::vector<std::optional<Term>>& inputs) override;
  std::vector<FetchResult> FetchBatch(
      const std::string& relation, const AccessPattern& pattern,
      const std::vector<std::vector<std::optional<Term>>>& inputs) override;

 private:
  void Count(std::size_t calls, std::size_t tuples);

  Source* inner_;
  Span span_;
};

// The bench-side mirror of QueryDaemon::Submit → RunQuerySession →
// AnswerStar, built from public calls only and timed at every layer
// boundary. It drives the deployment's daemon state (tenants, admission,
// shared cache, stats catalog), so its answers, physical calls and
// simulated time must equal the daemon's own on the same stream. Delta
// ops go through the daemon whole, timed as one span.
class Mirror {
 public:
  // At most one Mirror is live at a time. It keeps the span lists of the
  // `keep_slowest` slowest requests for ChromeTrace.
  Mirror(Deployment* deployment, std::size_t keep_slowest);
  ~Mirror();
  Mirror(const Mirror&) = delete;
  Mirror& operator=(const Mirror&) = delete;

  std::string SubmitQuery(const std::string& line);
  std::string SubmitWrite(const std::string& line);

  // Totals over every client thread. Call after the phase's threads
  // have joined.
  LayerCounts counts() const;
  std::array<std::uint64_t, kSpanCount> self_ns() const;
  std::uint64_t request_ns() const;
  // Chrome trace-event JSON of the slowest requests.
  JsonValue ChromeTrace() const;

 private:
  Tracer* ThreadTracer();
  ServiceResponse Session(const ServiceRequest& request);

  Deployment* deployment_;
  std::size_t keep_slowest_;
  std::uint64_t generation_;
  // Each session merges its operator-DAG counters here, under the stats
  // lock, as RunQuerySession does into the daemon's totals.
  RuntimeStats operator_totals_;
  mutable std::mutex tracers_mu_;
  std::vector<std::unique_ptr<Tracer>> tracers_;
};

}  // namespace ucqn::e2e

#endif  // UCQN_BENCH_E2E_TRACE_H_
