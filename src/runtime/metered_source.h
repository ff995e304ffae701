#ifndef UCQN_RUNTIME_METERED_SOURCE_H_
#define UCQN_RUNTIME_METERED_SOURCE_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "eval/source.h"
#include "runtime/clock.h"

namespace ucqn {

// Latency histogram over power-of-two microsecond buckets: bucket b counts
// samples in [2^b, 2^(b+1)) us (bucket 0 also holds 0us samples). 30
// buckets cover up to ~18 minutes per call.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 30;

  void Record(std::uint64_t micros);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum_micros() const { return sum_; }
  std::uint64_t min_micros() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max_micros() const { return max_; }
  double mean_micros() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_;
  }
  const std::array<std::uint64_t, kBuckets>& buckets() const {
    return buckets_;
  }
  // Upper bound of the bucket holding the p-th percentile sample
  // (0 < p <= 1); 0 when empty.
  std::uint64_t PercentileUpperBoundMicros(double p) const;

  // e.g. "n=12 mean=34.5us p50<=64us p99<=128us max=97us".
  std::string ToString() const;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

// Per-relation call/tuple/error counters plus latency histograms — the
// access-cost observability the paper's web-service model calls for.
// `latency` holds per-call timings of single Fetch calls; batched
// waves are timed as a unit instead (individual sub-call latencies overlap
// below the parallel dispatcher and are not observable from above):
// `batch_size` histograms how many sub-calls each wave carried and
// `wave_micros` how long the whole wave took wall-clock.
struct RelationMetrics {
  std::uint64_t calls = 0;
  std::uint64_t errors = 0;
  std::uint64_t tuples = 0;
  std::uint64_t batches = 0;
  LatencyHistogram latency;
  LatencyHistogram batch_size;   // unit: sub-calls per wave, not micros
  LatencyHistogram wave_micros;  // wall-clock per wave
};

// Decorator that meters every call reaching the wrapped source. Sits at
// the bottom of the stack (directly above the transport, or above the
// parallel dispatcher when one is configured) so each retry attempt and
// every cache miss is measured, while cache hits are not.
class MeteredSource : public EncodedSource {
 public:
  // Does not take ownership; `inner` (and `clock`, if given) must outlive
  // the adapter. Without a clock, latencies are all recorded as zero but
  // call/tuple/error counting still works.
  explicit MeteredSource(Source* inner, Clock* clock = nullptr)
      : inner_(inner), clock_(clock) {}

  // A single call is timed into `latency`, a wave as one unit into
  // `wave_micros`.
  std::vector<EncodedFetchResult> FetchEncoded(
      const std::string& relation, const AccessPattern& pattern,
      const std::vector<EncodedTuple>& signatures, CallShape shape) override;

  const RelationMetrics& totals() const { return totals_; }
  const std::map<std::string, RelationMetrics>& per_relation() const {
    return per_relation_;
  }
  // Relation -> pattern word -> metrics. The same counters as
  // per_relation(), split by the access pattern the call went through —
  // the paper's `B^oio`-style operations of one service can have wildly
  // different latencies, and pooling them would misprice both (see
  // StatsCatalog, which snapshots this split per (relation, pattern)).
  const std::map<std::string, std::map<std::string, RelationMetrics>>&
  per_access() const {
    return per_access_;
  }
  void Reset();

  // Human-readable table, one line per relation plus a totals line.
  std::string ToText() const;
  // Machine-readable export for dashboards/benches:
  // {"totals": {...}, "relations": {"R": {...}, ...}}.
  std::string ToJson() const;

 private:
  Source* inner_;
  Clock* clock_;
  RelationMetrics totals_;
  std::map<std::string, RelationMetrics> per_relation_;
  std::map<std::string, std::map<std::string, RelationMetrics>> per_access_;
};

}  // namespace ucqn

#endif  // UCQN_RUNTIME_METERED_SOURCE_H_
