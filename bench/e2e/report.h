#ifndef UCQN_BENCH_E2E_REPORT_H_
#define UCQN_BENCH_E2E_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "replay.h"
#include "trace.h"
#include "util/json.h"
#include "workloads.h"

namespace ucqn::e2e {

// One reported number with what a comparison needs to judge it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool higher_is_better = false;
  // Share of the baseline median by which the metric may worsen before a
  // change counts as a regression; 0 = it must repeat exactly.
  double bound = 0.0;
  // Worsening below this absolute amount never counts (set-up time).
  double floor = 0.0;
  std::uint64_t samples = 0;
  // > 0 when the value is read from this many per-slice values.
  std::size_t windows = 0;
};

// The machines this runs on have slow spells, seconds long, in which
// everything runs up to a third slower. The noise only ever slows a run
// down, so throughput, p50 and p95 are read from the phase's fastest
// stretches: each is computed per kWindowSeconds window, and the value
// is the window at the kFastWindowShare end (highest rates, lowest
// latencies). A spell then moves the value only when it covers nearly
// the whole phase. Windows with fewer than kMinWindowQueries queries
// give no latency. p99 needs more samples than a window holds; it is the
// median, over groups of kLatencyGroup consecutive queries, of each
// group's p99.
constexpr double kWindowSeconds = 0.5;
constexpr double kFastWindowShare = 0.1;
constexpr std::size_t kMinWindowQueries = 20;
constexpr std::size_t kLatencyGroup = 1000;

// The end-to-end metrics of one untraced phase. The count metrics
// (simulated latencies, physical calls) cover its first `counted`
// requests and the writes among them.
std::vector<Metric> EndToEndMetrics(const WorkloadConfig& config,
                                    const PhaseResult& phase, double seconds,
                                    std::size_t counted,
                                    const std::vector<double>& setup_seconds,
                                    double peak_rss_mb);

// Daemon-side state sampled around the traced phase.
struct DaemonSample {
  SharedCacheStore::Stats cache;
  AdmissionController::Counters admission;
  std::size_t stats_rows = 0;
  std::size_t dictionary_terms = 0;
};
DaemonSample SampleDaemon(QueryDaemon& daemon);

// The per-layer metrics of one traced phase. `overhead` compares its
// wall time per request with the untraced phase over the same requests.
std::vector<Metric> LayerMetrics(const Mirror& mirror,
                                 const PhaseResult& traced,
                                 const DaemonSample& before,
                                 const DaemonSample& after, double overhead);

JsonValue MetricsToJson(const std::vector<Metric>& metrics);

}  // namespace ucqn::e2e

#endif  // UCQN_BENCH_E2E_REPORT_H_
