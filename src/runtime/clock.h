#ifndef UCQN_RUNTIME_CLOCK_H_
#define UCQN_RUNTIME_CLOCK_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>

namespace ucqn {

// Time source for the runtime layer (retry backoff, deadlines, latency
// metrics). Everything is expressed in integer microseconds so simulated
// and real time share one arithmetic.
//
// The decorators in src/runtime/ never touch std::chrono directly; they
// go through a Clock*. Passing a SimulatedClock makes retry/backoff and
// latency-injection tests fully deterministic and lets the benches report
// "network time saved" without actually sleeping.
class Clock {
 public:
  virtual ~Clock() = default;

  // Monotonic now, in microseconds since an arbitrary epoch.
  virtual std::uint64_t NowMicros() = 0;

  // Blocks (or pretends to) for `micros` microseconds.
  virtual void SleepMicros(std::uint64_t micros) = 0;

  // Brackets a parallel fetch wave (runtime/parallel_source.h): between
  // BeginWave and EndWave, up to `workers` threads sleep on this clock
  // concurrently, and those sleeps overlap in wall-clock terms. Real
  // clocks overlap naturally and ignore the bracket; a SimulatedClock uses
  // it to charge the wave max-over-workers instead of sum-over-calls.
  // Waves do not nest.
  virtual void BeginWave(std::size_t workers) { (void)workers; }
  virtual void EndWave() {}

  // Brackets a group of waves resolved back-to-back by one round of the
  // operator-DAG driver (eval/dag_executor.h: pipelined literals or racing
  // disjuncts).
  // Each wave's resolution runs inside its own BeginLane/EndLane pair;
  // EndOverlap charges the group max-over-lanes, the wall-clock model of
  // futures genuinely in flight together. Inside a lane, sleeps (and any
  // nested parallel-wave bracket) accrue to that lane's private timeline.
  // Real clocks ignore the brackets; overlaps do not nest, and lanes only
  // appear inside an overlap, one at a time.
  virtual void BeginOverlap() {}
  virtual void BeginLane() {}
  virtual void EndLane() {}
  virtual void EndOverlap() {}
};

// Real wall-clock time: steady_clock + this_thread::sleep_for. Concurrent
// sleeps genuinely overlap, so the wave bracket is a no-op.
class SteadyClock : public Clock {
 public:
  std::uint64_t NowMicros() override {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
  void SleepMicros(std::uint64_t micros) override {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }
};

// Virtual time: starts at zero, advances only via SleepMicros/Advance.
// Shared between FaultInjectingSource (which injects latency by sleeping)
// and MeteredSource (which timestamps calls), this yields exact,
// repeatable latency histograms.
//
// Safe for concurrent use. Outside a wave, concurrent sleeps serialize:
// each call advances the shared clock by its full duration (sum
// semantics, matching sequential execution). Inside a wave each sleeping
// thread accrues a private offset — its own virtual timeline — and
// EndWave advances the shared clock by the *maximum* offset: the wave
// costs what its slowest worker cost, exactly the wall-clock model of
// truly overlapped remote calls. Because ParallelSource assigns requests
// to workers statically, each worker's offset is a fixed sum of its own
// requests' latencies, so the advance is deterministic under any thread
// interleaving.
// Overlap brackets extend the same idea one level up: between
// BeginOverlap and EndOverlap, each BeginLane/EndLane pair accrues its
// sleeps (and any nested parallel wave's max-over-workers charge) into a
// private lane timeline, and EndOverlap advances the shared clock by the
// *maximum* lane total — several literals' waves in flight together cost
// what the slowest one cost. NowMicros inside a lane sees the lane's
// private progress, so deadline checks (runtime/retrying_source.h) stay
// consistent with what a truly-async transport's worker would observe.
class SimulatedClock : public Clock {
 public:
  std::uint64_t NowMicros() override {
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t now = now_micros_;
    if (in_lane_) now += lane_offset_;
    if (in_wave_) {
      auto it = wave_offsets_.find(std::this_thread::get_id());
      if (it != wave_offsets_.end()) now += it->second;
    }
    return now;
  }
  void SleepMicros(std::uint64_t micros) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (in_wave_) {
      wave_offsets_[std::this_thread::get_id()] += micros;
    } else if (in_lane_) {
      lane_offset_ += micros;
    } else {
      now_micros_ += micros;
    }
  }
  void Advance(std::uint64_t micros) { SleepMicros(micros); }

  void BeginWave(std::size_t workers) override {
    (void)workers;
    std::lock_guard<std::mutex> lock(mu_);
    in_wave_ = true;
    wave_offsets_.clear();
  }
  void EndWave() override {
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t longest = 0;
    for (const auto& [tid, offset] : wave_offsets_) {
      if (offset > longest) longest = offset;
    }
    // A wave nested inside a lane is part of that lane's timeline: its
    // cost competes with the other lanes' totals instead of advancing the
    // shared clock immediately.
    if (in_lane_) {
      lane_offset_ += longest;
    } else {
      now_micros_ += longest;
    }
    wave_offsets_.clear();
    in_wave_ = false;
  }

  void BeginOverlap() override {
    std::lock_guard<std::mutex> lock(mu_);
    in_overlap_ = true;
    overlap_longest_ = 0;
  }
  void BeginLane() override {
    std::lock_guard<std::mutex> lock(mu_);
    in_lane_ = true;
    lane_offset_ = 0;
  }
  void EndLane() override {
    std::lock_guard<std::mutex> lock(mu_);
    if (lane_offset_ > overlap_longest_) overlap_longest_ = lane_offset_;
    lane_offset_ = 0;
    in_lane_ = false;
  }
  void EndOverlap() override {
    std::lock_guard<std::mutex> lock(mu_);
    now_micros_ += overlap_longest_;
    overlap_longest_ = 0;
    in_overlap_ = false;
  }

 private:
  std::mutex mu_;
  std::uint64_t now_micros_ = 0;
  bool in_wave_ = false;
  std::map<std::thread::id, std::uint64_t> wave_offsets_;
  bool in_overlap_ = false;
  bool in_lane_ = false;
  std::uint64_t lane_offset_ = 0;
  std::uint64_t overlap_longest_ = 0;
};

}  // namespace ucqn

#endif  // UCQN_RUNTIME_CLOCK_H_
