#include "runtime/fault_injection.h"

#include <optional>
#include <random>

#include "util/hash.h"

namespace ucqn {

namespace {

// The request's content as text: relation^pattern, then one `|`-separated
// field per slot holding the input value. Seeds hash it, so they are the
// same whichever dialect the request arrived in.
std::string CallKey(const std::string& relation, const AccessPattern& pattern,
                    const EncodedTuple& signature) {
  const TermDictionary& dict = TermDictionary::Global();
  std::string key = relation + "^" + pattern.word();
  for (std::size_t j = 0; j < signature.size(); ++j) {
    key += "|";
    if (pattern.IsInputSlot(j) && signature[j] != TermDictionary::kAbsentId) {
      key += dict.DecodeTerm(signature[j]).ToString();
    }
  }
  return key;
}

}  // namespace

std::vector<EncodedFetchResult> FaultInjectingSource::FetchEncoded(
    const std::string& relation, const AccessPattern& pattern,
    const std::vector<EncodedTuple>& signatures, CallShape shape) {
  const std::size_t n = signatures.size();
  std::uint64_t base_latency = plan_.latency_micros;
  auto relation_latency = plan_.relation_latency_micros.find(relation);
  if (relation_latency != plan_.relation_latency_micros.end()) {
    base_latency = relation_latency->second;
  }
  double failure_probability = plan_.failure_probability;
  auto flaky = plan_.relation_failure_probability.find(relation);
  if (flaky != plan_.relation_failure_probability.end()) {
    failure_probability = flaky->second;
  }
  const bool counted = plan_.fail_first_per_key > 0 ||
                       plan_.latency_jitter_micros > 0 ||
                       failure_probability > 0.0;

  std::uint64_t first_call = 0;  // arrival index (fail_first_calls only)
  std::vector<std::uint64_t> occurrence(counted ? n : 0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    first_call = stats_.calls + 1;
    stats_.calls += n;
    if (counted) {
      auto& counts = per_key_calls_[relation + "^" + pattern.word()];
      for (std::size_t i = 0; i < n; ++i) {
        occurrence[i] = counts[signatures[i]]++;
      }
    }
  }

  // Sized on the first failure; until then every request survives.
  std::vector<EncodedFetchResult> results;
  std::uint64_t injected_latency = 0;
  std::uint64_t injected_failures = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // Per-request randomness is derived from the request's content (call
    // signature + occurrence number), not from a shared stream consumed
    // in arrival order: a parallel wave replays identically however its
    // threads interleave.
    std::optional<std::mt19937_64> rng;
    auto draw = [&]() -> std::mt19937_64& {
      if (!rng.has_value()) {
        std::size_t request_seed = static_cast<std::size_t>(plan_.seed);
        HashCombine(&request_seed, CallKey(relation, pattern, signatures[i]));
        HashCombine(&request_seed, occurrence[i]);
        rng.emplace(request_seed);
      }
      return *rng;
    };

    // Latency is injected up front: a failing service still makes you
    // wait.
    std::uint64_t latency = base_latency;
    if (plan_.latency_jitter_micros > 0) {
      std::uniform_int_distribution<std::uint64_t> dist(
          0, plan_.latency_jitter_micros);
      latency += dist(draw());
    }
    // Correlated spike: every call landing inside the spike window of the
    // shared clock pays extra, whatever relation it targets. The window
    // is read from the clock (not the seeded rng) so concurrent relations
    // spike *together* — the point of a correlated fault.
    if (plan_.spike_period_micros > 0 && clock_ != nullptr &&
        clock_->NowMicros() % plan_.spike_period_micros <
            plan_.spike_duration_micros) {
      latency += plan_.spike_extra_micros;
    }
    if (latency > 0) {
      injected_latency += latency;
      if (clock_ != nullptr) clock_->SleepMicros(latency);
    }

    bool fail = first_call + i <= plan_.fail_first_calls;
    if (!fail && plan_.fail_first_per_key > 0 &&
        occurrence[i] < plan_.fail_first_per_key) {
      fail = true;
    }
    if (!fail && failure_probability > 0.0) {
      std::uniform_real_distribution<double> dist(0.0, 1.0);
      fail = dist(draw()) < failure_probability;
    }
    if (fail) {
      ++injected_failures;
      results.resize(n);
      results[i] = EncodedFetchResult::Error(
          FetchStatus::kTransientError,
          "injected transient failure on " + relation + "^" + pattern.word());
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.injected_latency_micros += injected_latency;
    stats_.injected_failures += injected_failures;
  }

  // The survivors reach the inner source as one wave.
  if (injected_failures == 0) {
    return inner_->FetchEncoded(relation, pattern, signatures, shape);
  }
  if (injected_failures == n) return results;
  std::vector<EncodedTuple> survivors;
  survivors.reserve(n - injected_failures);
  for (std::size_t i = 0; i < n; ++i) {
    if (results[i].ok()) survivors.push_back(signatures[i]);
  }
  std::vector<EncodedFetchResult> answered =
      inner_->FetchEncoded(relation, pattern, survivors, shape);
  for (std::size_t i = 0, k = 0; i < n; ++i) {
    if (results[i].ok()) results[i] = std::move(answered[k++]);
  }
  return results;
}

}  // namespace ucqn
