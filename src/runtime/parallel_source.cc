#include "runtime/parallel_source.h"

#include <algorithm>

namespace ucqn {

ParallelSource::ParallelSource(Source* inner, std::size_t workers,
                               Clock* clock)
    : inner_(inner), workers_(std::max<std::size_t>(workers, 1)),
      clock_(clock) {}

ParallelSource::~ParallelSource() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

EncodedFetchResult ParallelSource::CallOne(const std::string& relation,
                                           const AccessPattern& pattern,
                                           const EncodedTuple& signature) {
  return std::move(
      inner_->FetchEncoded(relation, pattern, {signature}, CallShape::kSingle)
          .front());
}

void ParallelSource::StartThreadsLocked() {
  if (!threads_.empty()) return;
  threads_.reserve(workers_);
  for (std::size_t w = 0; w < workers_; ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

void ParallelSource::WorkerLoop(std::size_t worker) {
  std::uint64_t seen = 0;
  for (;;) {
    std::unique_lock<std::mutex> lock(mu_);
    work_cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
    if (shutdown_) return;
    seen = generation_;
    if (worker >= wave_workers_) continue;  // not part of this wave
    const std::string& relation = *relation_;
    const AccessPattern& pattern = *pattern_;
    const std::vector<EncodedTuple>& batch = *batch_;
    std::vector<EncodedFetchResult>* results = results_;
    const std::size_t stride = wave_workers_;
    lock.unlock();
    for (std::size_t i = worker; i < batch.size(); i += stride) {
      (*results)[i] = CallOne(relation, pattern, batch[i]);
    }
    lock.lock();
    if (--remaining_ == 0) done_cv_.notify_one();
  }
}

std::vector<EncodedFetchResult> ParallelSource::FetchEncoded(
    const std::string& relation, const AccessPattern& pattern,
    const std::vector<EncodedTuple>& signatures, CallShape shape) {
  // A single call goes straight through: only waves are dispatched (and
  // counted).
  if (shape == CallShape::kSingle) {
    return inner_->FetchEncoded(relation, pattern, signatures, shape);
  }
  ++stats_.batches;
  stats_.requests += signatures.size();
  const std::size_t fanout = std::min(workers_, signatures.size());
  if (fanout <= 1) {
    // Inline on the caller's thread: the historical sequential behavior,
    // with no wave bracketing (sum semantics on a SimulatedClock).
    std::vector<EncodedFetchResult> results;
    results.reserve(signatures.size());
    for (const EncodedTuple& signature : signatures) {
      results.push_back(CallOne(relation, pattern, signature));
    }
    return results;
  }

  ++stats_.parallel_batches;
  std::vector<EncodedFetchResult> results(signatures.size());
  if (clock_ != nullptr) clock_->BeginWave(fanout);
  {
    std::lock_guard<std::mutex> lock(mu_);
    StartThreadsLocked();
    relation_ = &relation;
    pattern_ = &pattern;
    batch_ = &signatures;
    results_ = &results;
    wave_workers_ = fanout;
    remaining_ = fanout;
    ++generation_;
  }
  work_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return remaining_ == 0; });
  }
  if (clock_ != nullptr) clock_->EndWave();
  return results;
}

}  // namespace ucqn
