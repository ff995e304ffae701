#include "runtime/metered_source.h"

#include <algorithm>
#include <cstdio>

namespace ucqn {

namespace {

std::size_t BucketFor(std::uint64_t micros) {
  std::size_t b = 0;
  while (micros > 1 && b + 1 < LatencyHistogram::kBuckets) {
    micros >>= 1;
    ++b;
  }
  return b;
}

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

}  // namespace

void LatencyHistogram::Record(std::uint64_t micros) {
  ++buckets_[BucketFor(micros)];
  if (count_ == 0 || micros < min_) min_ = micros;
  max_ = std::max(max_, micros);
  sum_ += micros;
  ++count_;
}

std::uint64_t LatencyHistogram::PercentileUpperBoundMicros(double p) const {
  if (count_ == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(p * static_cast<double>(count_));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= std::max<std::uint64_t>(rank, 1)) {
      return b == 0 ? 1 : (std::uint64_t{2} << b) - 1;
    }
  }
  return max_;
}

std::string LatencyHistogram::ToString() const {
  return "n=" + std::to_string(count_) + " mean=" + FormatDouble(mean_micros()) +
         "us p50<=" + std::to_string(PercentileUpperBoundMicros(0.5)) +
         "us p99<=" + std::to_string(PercentileUpperBoundMicros(0.99)) +
         "us max=" + std::to_string(max_micros()) + "us";
}

std::vector<EncodedFetchResult> MeteredSource::FetchEncoded(
    const std::string& relation, const AccessPattern& pattern,
    const std::vector<EncodedTuple>& signatures, CallShape shape) {
  const std::uint64_t start = clock_ != nullptr ? clock_->NowMicros() : 0;
  std::vector<EncodedFetchResult> results =
      inner_->FetchEncoded(relation, pattern, signatures, shape);
  const std::uint64_t elapsed =
      clock_ != nullptr ? clock_->NowMicros() - start : 0;

  RelationMetrics& rel = per_relation_[relation];
  RelationMetrics& access = per_access_[relation][pattern.word()];
  for (RelationMetrics* m : {&totals_, &rel, &access}) {
    if (shape == CallShape::kSingle) {
      m->latency.Record(elapsed);
    } else {
      ++m->batches;
      m->batch_size.Record(signatures.size());
      // The wave is timed as one unit: under a parallel dispatcher the
      // sub-calls overlap, so this is the wave's wall-clock, not a sum.
      m->wave_micros.Record(elapsed);
    }
    for (const EncodedFetchResult& result : results) {
      ++m->calls;
      if (result.ok()) {
        m->tuples += result.rows->size();
      } else {
        ++m->errors;
      }
    }
  }
  return results;
}

void MeteredSource::Reset() {
  totals_ = RelationMetrics{};
  per_relation_.clear();
  per_access_.clear();
}

namespace {

std::string MetricsLine(const std::string& name, const RelationMetrics& m) {
  std::string line = name + ": calls=" + std::to_string(m.calls) +
                     " errors=" + std::to_string(m.errors) +
                     " tuples=" + std::to_string(m.tuples) + " latency[" +
                     m.latency.ToString() + "]";
  if (m.batches != 0) {
    line += " batches=" + std::to_string(m.batches) + " batch_size[" +
            m.batch_size.ToString() + "] wave[" + m.wave_micros.ToString() +
            "]";
  }
  return line;
}

// `extra_fields` is spliced into the object before its closing brace
// (", \"key\": ..." form) — used to nest the per-pattern split.
std::string MetricsJson(const RelationMetrics& m,
                        const std::string& extra_fields = "") {
  std::string out = "{\"calls\": " + std::to_string(m.calls) +
                    ", \"errors\": " + std::to_string(m.errors) +
                    ", \"tuples\": " + std::to_string(m.tuples) +
                    ", \"latency_us\": {\"count\": " +
                    std::to_string(m.latency.count()) +
                    ", \"sum\": " + std::to_string(m.latency.sum_micros()) +
                    ", \"min\": " + std::to_string(m.latency.min_micros()) +
                    ", \"max\": " + std::to_string(m.latency.max_micros()) +
                    ", \"p50\": " +
                    std::to_string(m.latency.PercentileUpperBoundMicros(0.5)) +
                    ", \"p99\": " +
                    std::to_string(m.latency.PercentileUpperBoundMicros(0.99)) +
                    ", \"buckets\": [";
  // Trailing zero buckets are elided to keep the export compact.
  std::size_t last = 0;
  for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
    if (m.latency.buckets()[b] != 0) last = b + 1;
  }
  for (std::size_t b = 0; b < last; ++b) {
    if (b != 0) out += ", ";
    out += std::to_string(m.latency.buckets()[b]);
  }
  out += "]}" + extra_fields + "}";
  return out;
}

}  // namespace

std::string MeteredSource::ToText() const {
  std::string out;
  for (const auto& [name, metrics] : per_relation_) {
    out += MetricsLine(name, metrics) + "\n";
    auto split = per_access_.find(name);
    if (split != per_access_.end() && split->second.size() > 1) {
      // Only worth a line per pattern when the relation was actually
      // reached through more than one.
      for (const auto& [word, access] : split->second) {
        out += "  " + MetricsLine(name + "^" + word, access) + "\n";
      }
    }
  }
  out += MetricsLine("TOTAL", totals_);
  return out;
}

std::string MeteredSource::ToJson() const {
  std::string out = "{\"totals\": " + MetricsJson(totals_) +
                    ", \"relations\": {";
  bool first = true;
  for (const auto& [name, metrics] : per_relation_) {
    if (!first) out += ", ";
    first = false;
    std::string patterns;
    auto split = per_access_.find(name);
    if (split != per_access_.end()) {
      patterns = ", \"patterns\": {";
      bool first_pattern = true;
      for (const auto& [word, access] : split->second) {
        if (!first_pattern) patterns += ", ";
        first_pattern = false;
        patterns += "\"" + word + "\": " + MetricsJson(access);
      }
      patterns += "}";
    }
    out += "\"" + name + "\": " + MetricsJson(metrics, patterns);
  }
  out += "}}";
  return out;
}

}  // namespace ucqn
