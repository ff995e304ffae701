#include "runtime/retrying_source.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"

namespace ucqn {

RetryingSource::RetryingSource(Source* inner, RetryPolicy policy,
                               CallBudget budget, Clock* clock)
    : inner_(inner),
      policy_(policy),
      budget_(budget),
      clock_(clock != nullptr ? clock : &own_clock_),
      rng_(policy.jitter_seed) {
  UCQN_CHECK_MSG(policy_.max_attempts >= 1, "retry needs at least 1 attempt");
  budget_start_micros_ = clock_->NowMicros();
}

void RetryingSource::ResetBudget() {
  std::lock_guard<std::mutex> lock(mu_);
  calls_used_ = 0;
  budget_start_micros_ = clock_->NowMicros();
}

bool RetryingSource::BudgetExceededLocked(std::string* why) {
  if (budget_.max_calls != 0 && calls_used_ >= budget_.max_calls) {
    *why = "call budget of " + std::to_string(budget_.max_calls) +
           " source calls exhausted";
    return true;
  }
  if (budget_.deadline_micros != 0) {
    // NowMicros is monotone, so elapsed never underflows.
    const std::uint64_t elapsed = clock_->NowMicros() - budget_start_micros_;
    if (elapsed >= budget_.deadline_micros) {
      *why = "deadline of " + std::to_string(budget_.deadline_micros) +
             "us exceeded (" + std::to_string(elapsed) + "us elapsed)";
      return true;
    }
  }
  return false;
}

std::uint64_t RetryingSource::BackoffMicrosLocked(int attempt) {
  double backoff = static_cast<double>(policy_.initial_backoff_micros) *
                   std::pow(policy_.backoff_multiplier, attempt - 1);
  backoff = std::min(backoff, static_cast<double>(policy_.max_backoff_micros));
  if (policy_.jitter > 0.0) {
    std::uniform_real_distribution<double> dist(0.0, policy_.jitter);
    backoff *= 1.0 + dist(rng_);
  }
  return static_cast<std::uint64_t>(backoff);
}

bool RetryingSource::BackoffCrossesDeadlineLocked(std::uint64_t backoff) {
  if (budget_.deadline_micros == 0) return false;
  const std::uint64_t elapsed = clock_->NowMicros() - budget_start_micros_;
  if (elapsed >= budget_.deadline_micros) return true;
  return backoff >= budget_.deadline_micros - elapsed;
}

std::vector<EncodedFetchResult> RetryingSource::FetchEncoded(
    const std::string& relation, const AccessPattern& pattern,
    const std::vector<EncodedTuple>& signatures, CallShape shape) {
  const std::size_t n = signatures.size();
  std::vector<EncodedFetchResult> out(n);
  std::vector<std::string> last_error(n);
  std::vector<std::size_t> pending(n);
  std::iota(pending.begin(), pending.end(), std::size_t{0});

  for (int attempt = 1;
       attempt <= policy_.max_attempts && !pending.empty(); ++attempt) {
    // Budget gate, per sub-call in request order: refused requests are
    // terminal, the rest each consume one attempt from the shared total.
    std::vector<std::size_t> admitted;
    admitted.reserve(pending.size());
    for (std::size_t request : pending) {
      std::string why;
      bool refused;
      {
        std::lock_guard<std::mutex> lock(mu_);
        refused = BudgetExceededLocked(&why);
        if (refused) {
          ++stats_.budget_refusals;
        } else {
          ++calls_used_;
          ++stats_.attempts;
          if (attempt > 1) ++stats_.retries;
        }
      }
      if (refused) {
        if (!last_error[request].empty()) {
          why += "; last error: " + last_error[request];
        }
        out[request] = EncodedFetchResult::Error(
            FetchStatus::kBudgetExhausted, std::move(why));
      } else {
        admitted.push_back(request);
      }
    }
    if (admitted.empty()) return out;

    // Forward the round as one batch so the layers below can overlap the
    // sub-calls; retries of round k fly together in round k+1.
    std::vector<EncodedTuple> round;
    round.reserve(admitted.size());
    for (std::size_t request : admitted) round.push_back(signatures[request]);
    std::vector<EncodedFetchResult> results =
        inner_->FetchEncoded(relation, pattern, round, shape);

    std::vector<std::size_t> still_failing;
    for (std::size_t j = 0; j < admitted.size(); ++j) {
      const std::size_t request = admitted[j];
      EncodedFetchResult& result = results[j];
      if (result.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.successes;
        out[request] = std::move(result);
      } else if (result.status == FetchStatus::kBudgetExhausted) {
        out[request] = std::move(result);  // terminal, never retried
      } else {
        last_error[request] = std::move(result.error);
        still_failing.push_back(request);
      }
    }
    pending = std::move(still_failing);

    if (!pending.empty() && attempt < policy_.max_attempts) {
      // One backoff per retry round: the pending sub-calls back off
      // together rather than serializing their individual sleeps.
      std::uint64_t micros;
      bool crosses;
      {
        std::lock_guard<std::mutex> lock(mu_);
        micros = BackoffMicrosLocked(attempt);
        crosses = BackoffCrossesDeadlineLocked(micros);
        if (crosses) {
          // No request of the next round could be admitted after this
          // sleep, so skip it and fail the round's survivors here: each
          // is counted as a refusal (as the admission gate would have),
          // and no call-budget attempt is debited for calls never made.
          stats_.budget_refusals += pending.size();
        } else {
          stats_.backoff_micros_total += micros;
        }
      }
      if (crosses) {
        for (std::size_t request : pending) {
          out[request] = EncodedFetchResult::Error(
              FetchStatus::kBudgetExhausted,
              "deadline of " + std::to_string(budget_.deadline_micros) +
              "us would be crossed by a " + std::to_string(micros) +
              "us backoff; last error: " + last_error[request]);
        }
        return out;
      }
      clock_->SleepMicros(micros);
    }
  }

  for (std::size_t request : pending) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.giveups;
    }
    out[request] = EncodedFetchResult::Error(
        FetchStatus::kTransientError,
        "giving up on " + relation + " after " +
        std::to_string(policy_.max_attempts) +
        " attempt(s): " + last_error[request]);
  }
  return out;
}

}  // namespace ucqn
