#include "report.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "dict/term_dictionary.h"

namespace ucqn::e2e {

namespace {

double Ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

Metric Make(std::string name, double value, std::string unit,
            bool higher_is_better, double bound, std::uint64_t samples) {
  Metric metric;
  metric.name = std::move(name);
  metric.value = value;
  metric.unit = std::move(unit);
  metric.higher_is_better = higher_is_better;
  metric.bound = bound;
  metric.samples = samples;
  return metric;
}

// Nearest-rank percentile of unsorted values; 0 for none.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

}  // namespace

std::vector<Metric> EndToEndMetrics(const WorkloadConfig& config,
                                    const PhaseResult& phase, double seconds,
                                    std::size_t counted,
                                    const std::vector<double>& setup_seconds,
                                    double peak_rss_mb) {
  const auto windows = static_cast<std::size_t>(
      std::max(1.0, std::round(seconds / kWindowSeconds)));
  const double window_us = seconds * 1e6 / static_cast<double>(windows);
  const auto window_of = [&](std::uint64_t done_us) {
    return std::min(windows - 1,
                    static_cast<std::size_t>(static_cast<double>(done_us) /
                                             window_us));
  };
  std::vector<double> completed(windows, 0.0);
  std::vector<std::vector<double>> latencies(windows);
  std::uint64_t failed = 0;
  // p99 per group of kLatencyGroup consecutive queries (one group when
  // there are fewer), so each group has ten samples above its p99.
  std::vector<double> p99s;
  std::vector<double> group;
  const std::size_t group_size = std::min(kLatencyGroup, phase.count);
  for (const RequestRecord& record : phase.requests()) {
    const double latency_us = static_cast<double>(record.latency_ns) / 1e3;
    const std::size_t w = window_of(record.done_us);
    completed[w] += 1.0;
    latencies[w].push_back(latency_us);
    if (record.status != ServiceResponse::Status::kOk) ++failed;
    group.push_back(latency_us);
    if (group.size() == group_size) {
      p99s.push_back(Percentile(group, 0.99));
      group.clear();
    }
  }
  std::vector<double> write_latencies;
  for (const WriteRecord& write : phase.writes) {
    completed[window_of(write.done_us)] += 1.0;
    write_latencies.push_back(static_cast<double>(write.latency_ns) / 1e3);
    if (!write.ok) ++failed;
  }

  // Counts come from the first `counted` requests only, so two runs of
  // one stream count the same requests however fast each ran.
  const std::span<const RequestRecord> prefix =
      phase.requests().first(std::min(counted, phase.count));
  std::vector<double> sim;
  double calls = 0.0;
  for (const RequestRecord& record : prefix) {
    sim.push_back(static_cast<double>(record.sim_micros));
    calls += static_cast<double>(record.physical_calls);
  }
  std::uint64_t prefix_writes = 0;
  for (const WriteRecord& write : phase.writes) {
    if (prefix.empty() || write.index > prefix.back().index) continue;
    calls += static_cast<double>(write.maintenance_calls);
    ++prefix_writes;
  }
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p95s;
  for (std::size_t w = 0; w < windows; ++w) {
    rates.push_back(completed[w] * 1e6 / window_us);
    if (latencies[w].size() < kMinWindowQueries) continue;
    p50s.push_back(Percentile(latencies[w], 0.50));
    p95s.push_back(Percentile(latencies[w], 0.95));
  }
  const std::uint64_t queries = phase.count;
  const std::uint64_t writes = phase.writes.size();
  const std::uint64_t attempted = queries + writes;

  std::vector<Metric> metrics;
  metrics.push_back(Make("throughput_rps",
                         Percentile(rates, 1.0 - kFastWindowShare), "req/s",
                         true, 0.08, attempted));
  metrics.back().windows = rates.size();
  metrics.push_back(Make("latency_p50_us",
                         Percentile(p50s, kFastWindowShare), "us", false,
                         0.10, queries));
  metrics.back().windows = p50s.size();
  metrics.push_back(Make("latency_p95_us",
                         Percentile(p95s, kFastWindowShare), "us", false,
                         0.10, queries));
  metrics.back().windows = p95s.size();
  metrics.push_back(Make("latency_p99_us", Median(p99s), "us", false, 0.10,
                         queries));
  metrics.back().windows = p99s.size();
  if (writes > 0) {
    metrics.push_back(Make("write_latency_p50_us",
                           Percentile(write_latencies, 0.50), "us", false,
                           0.10, writes));
    metrics.push_back(Make("write_latency_p99_us",
                           Percentile(write_latencies, 0.99), "us", false,
                           0.10, writes));
  }
  if (config.clients == 1) {
    metrics.push_back(Make("sim_latency_p50_us", Percentile(sim, 0.50), "us",
                           false, 0.0, prefix.size()));
    metrics.push_back(Make("sim_latency_p99_us", Percentile(sim, 0.99), "us",
                           false, 0.0, prefix.size()));
  }
  // Concurrent clients interleave on the cache, so the call count moves a
  // little between identical runs.
  metrics.push_back(Make(
      "physical_calls_per_req",
      Ratio(calls, static_cast<double>(prefix.size() + prefix_writes)),
      "calls", false, config.clients > 1 ? 0.03 : 0.0,
      prefix.size() + prefix_writes));
  metrics.push_back(Make("failed_share",
                         Ratio(static_cast<double>(failed),
                               static_cast<double>(attempted)),
                         "ratio", false, 0.0, attempted));
  Metric setup = Make("setup_s", Median(setup_seconds), "s", false, 0.10,
                      setup_seconds.size());
  setup.floor = 0.05;
  metrics.push_back(setup);
  metrics.push_back(
      Make("peak_rss_mb", peak_rss_mb, "MB", false, 0.05, 1));
  return metrics;
}

DaemonSample SampleDaemon(QueryDaemon& daemon) {
  DaemonSample sample;
  sample.cache = daemon.shared_cache()->stats();
  sample.admission = daemon.admission()->counters();
  {
    std::lock_guard<std::mutex> lock(*daemon.stats_mu());
    sample.stats_rows = daemon.stats()->relations().size();
    for (const auto& [relation, patterns] : daemon.stats()->patterns()) {
      sample.stats_rows += patterns.size();
    }
  }
  sample.dictionary_terms = TermDictionary::Global().size();
  return sample;
}

std::vector<Metric> LayerMetrics(const Mirror& mirror,
                                 const PhaseResult& traced,
                                 const DaemonSample& before,
                                 const DaemonSample& after, double overhead) {
  const LayerCounts counts = mirror.counts();
  const std::array<std::uint64_t, kSpanCount> self_ns = mirror.self_ns();
  const auto request_ns = static_cast<double>(mirror.request_ns());
  const auto queries = static_cast<double>(counts.queries);
  const auto writes = static_cast<double>(counts.writes);
  const double attempted = queries + writes;
  const std::uint64_t samples = counts.queries + counts.writes;

  std::vector<Metric> metrics;
  const auto add = [&](std::string name, double value, std::string unit,
                       bool higher_is_better) {
    metrics.push_back(Make(std::move(name), value, std::move(unit),
                           higher_is_better, 0.0, samples));
  };
  for (std::size_t s = 1; s < kSpanCount; ++s) {
    const std::string name = SpanName(static_cast<Span>(s));
    const auto self = static_cast<double>(self_ns[s]);
    add(name + ".self_us_per_req", Ratio(self / 1e3, attempted), "us", false);
    add(name + ".share", Ratio(self, request_ns), "ratio", false);
  }
  add("feasibility.path.plans_equal", Ratio(counts.paths[0], queries),
      "ratio", true);
  add("feasibility.path.null_in_over", Ratio(counts.paths[1], queries),
      "ratio", false);
  add("feasibility.path.containment", Ratio(counts.paths[2], queries),
      "ratio", false);
  add("feasibility.containment_nodes_per_req",
      Ratio(counts.containment_nodes, queries), "count", false);
  add("answers.delta_share", Ratio(counts.answers_with_delta, queries),
      "ratio", false);
  add("runtime.logical_calls_per_req", Ratio(counts.logical_calls, queries),
      "calls", false);
  add("cache.hit_ratio",
      Ratio(counts.cache_hits, static_cast<double>(counts.cache_hits +
                                                   counts.cache_misses)),
      "ratio", true);
  add("cache.flight_waits_per_req", Ratio(counts.cache_flight_waits, queries),
      "count", false);
  add("cache.stale_drops_per_req", Ratio(counts.cache_stale_drops, queries),
      "count", false);
  add("cache.evictions",
      static_cast<double>(after.cache.evictions - before.cache.evictions),
      "count", false);
  add("cache.invalidated_per_write",
      Ratio(static_cast<double>(after.cache.invalidated -
                                before.cache.invalidated),
            writes),
      "count", false);
  add("cache.bytes", static_cast<double>(after.cache.bytes), "bytes", false);
  add("backend.calls_per_req", Ratio(counts.backend_calls, attempted),
      "calls", false);
  add("backend.batches_per_req", Ratio(counts.backend_batches, attempted),
      "count", false);
  add("backend.tuples_per_call",
      Ratio(counts.backend_tuples, counts.backend_calls), "tuples", false);
  add("eval.op.disjuncts_per_req", Ratio(counts.disjuncts, queries), "count",
      false);
  add("eval.op.morsels_per_req", Ratio(counts.morsels, queries), "count",
      false);
  add("eval.op.antijoin_build_per_req", Ratio(counts.antijoin_build, queries),
      "tuples", false);
  add("dict.terms", static_cast<double>(after.dictionary_terms), "count",
      false);
  double request_bytes = 0.0;
  double response_bytes = 0.0;
  for (const RequestRecord& record : traced.requests()) {
    request_bytes += record.request_bytes;
    response_bytes += record.response_bytes;
  }
  add("protocol.request_bytes", Ratio(request_bytes, queries), "bytes",
      false);
  add("protocol.response_bytes", Ratio(response_bytes, queries), "bytes",
      false);
  add("admission.queued_share",
      Ratio(static_cast<double>(after.admission.queued -
                                before.admission.queued),
            static_cast<double>(after.admission.admitted -
                                before.admission.admitted)),
      "ratio", false);
  add("cost.stats_rows", static_cast<double>(after.stats_rows), "count",
      false);
  double standing_updated = 0.0;
  double maintenance_calls = 0.0;
  for (const WriteRecord& write : traced.writes) {
    standing_updated += static_cast<double>(write.standing_updated);
    maintenance_calls += static_cast<double>(write.maintenance_calls);
  }
  add("delta.standing_updated_per_write", Ratio(standing_updated, writes),
      "count", false);
  add("delta.maintenance_calls_per_write", Ratio(maintenance_calls, writes),
      "calls", false);
  add("trace.overhead", overhead, "ratio", false);
  add("trace.span_coverage",
      1.0 - Ratio(static_cast<double>(self_ns[0]), request_ns), "ratio",
      true);
  return metrics;
}

JsonValue MetricsToJson(const std::vector<Metric>& metrics) {
  JsonValue out = JsonValue::Object();
  for (const Metric& metric : metrics) {
    JsonValue entry = JsonValue::Object();
    entry.Set("value", JsonValue::Number(metric.value));
    entry.Set("unit", JsonValue::String(metric.unit));
    entry.Set("better",
              JsonValue::String(metric.higher_is_better ? "higher" : "lower"));
    entry.Set("bound", JsonValue::Number(metric.bound));
    if (metric.floor > 0.0) entry.Set("floor", JsonValue::Number(metric.floor));
    entry.Set("samples", JsonValue::Number(static_cast<double>(metric.samples)));
    if (metric.windows > 0) {
      entry.Set("windows",
                JsonValue::Number(static_cast<double>(metric.windows)));
    }
    out.Set(metric.name, std::move(entry));
  }
  return out;
}

}  // namespace ucqn::e2e
