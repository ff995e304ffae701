// Pins FaultInjectingSource's seeded behavior: for one plan that uses
// every fault rule (jitter, a per-relation failure probability,
// fail_first_per_key, fail_first_calls), each request's injected latency
// and outcome are recorded through the three call dialects (string Fetch,
// FetchBatch, FetchEncoded), serially and under a 4-worker
// ParallelSource. The values are literals: a change to how requests are
// keyed, counted or seeded shows up here as a diff, not as drift.
#include <algorithm>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/fault_injection.h"
#include "runtime/parallel_source.h"

namespace ucqn {
namespace {

// A SimulatedClock that also records every sleep it is asked for.
class RecordingClock : public SimulatedClock {
 public:
  void SleepMicros(std::uint64_t micros) override {
    {
      std::lock_guard<std::mutex> lock(record_mu_);
      sleeps_.push_back(micros);
    }
    SimulatedClock::SleepMicros(micros);
  }
  std::vector<std::uint64_t> sleeps() {
    std::lock_guard<std::mutex> lock(record_mu_);
    return sleeps_;
  }

 private:
  std::mutex record_mu_;
  std::vector<std::uint64_t> sleeps_;
};

enum class Dialect { kFetch, kFetchBatch, kFetchEncoded };

using Request = std::vector<std::optional<Term>>;

struct Wave {
  std::string relation;
  AccessPattern pattern;
  std::vector<Request> requests;
};

// What one run observed: per request in issue order, its outcome
// ("ok<rows>" or "err"); the sleeps in the order the clock saw them; the
// final virtual time.
struct Observed {
  std::vector<std::string> outcomes;
  std::vector<std::uint64_t> sleeps;
  std::uint64_t now = 0;
  FaultInjectingSource::FaultStats stats;
};

class FaultSeedTest : public ::testing::Test {
 protected:
  FaultSeedTest() {
    catalog_ = Catalog::MustParse("R/2: oo io\nS/1: i\n");
    db_ = Database::MustParseFacts(R"(
      R("a", "b").
      R("c", "b").
      R("c", "d").
      R("e", "f").
      S("b").
      S("d").
    )");
    plan_.seed = 11;
    plan_.latency_micros = 40;
    plan_.latency_jitter_micros = 30;
    plan_.failure_probability = 0.1;
    plan_.relation_failure_probability["R"] = 0.35;
    plan_.fail_first_per_key = 1;
    plan_.fail_first_calls = 2;
  }

  // Two scans absorb fail_first_calls one at a time, so its arrival-order
  // rule never meets a parallel wave; then three rounds of eight distinct
  // R keys (occurrences 0, 1, 2) and two rounds of four S probes.
  std::vector<Wave> Waves() const {
    std::vector<Wave> waves;
    const AccessPattern scan = AccessPattern::MustParse("oo");
    for (int i = 0; i < 2; ++i) {
      waves.push_back({"R", scan, {{std::nullopt, std::nullopt}}});
    }
    Wave keyed{"R", AccessPattern::MustParse("io"), {}};
    for (const char* key : {"a", "c", "e", "k3", "k4", "k5", "k6", "k7"}) {
      keyed.requests.push_back({Term::Constant(key), std::nullopt});
    }
    for (int round = 0; round < 3; ++round) waves.push_back(keyed);
    Wave probe{"S", AccessPattern::MustParse("i"), {}};
    for (const char* key : {"b", "d", "x", "y"}) {
      probe.requests.push_back({Term::Constant(key)});
    }
    for (int round = 0; round < 2; ++round) waves.push_back(probe);
    return waves;
  }

  static std::string Outcome(const FetchResult& result,
                             const std::string& relation,
                             const AccessPattern& pattern) {
    if (result.ok()) return "ok" + std::to_string(result.tuples.size());
    EXPECT_EQ(result.status, FetchStatus::kTransientError);
    EXPECT_EQ(result.error,
              "injected transient failure on " + relation + "^" +
                  pattern.word());
    return "err";
  }

  Observed Drive(Dialect dialect, std::size_t workers) {
    RecordingClock clock;
    DatabaseSource backend(&db_, &catalog_);
    FaultInjectingSource faulty(&backend, plan_, &clock);
    ParallelSource parallel(&faulty, workers, &clock);
    Source* top = workers > 1 ? static_cast<Source*>(&parallel) : &faulty;
    Observed run;
    for (const Wave& wave : Waves()) {
      std::vector<FetchResult> results;
      // The scans are single calls in every dialect.
      if (dialect == Dialect::kFetch || wave.requests.size() == 1) {
        for (const Request& request : wave.requests) {
          results.push_back(top->Fetch(wave.relation, wave.pattern, request));
        }
      } else if (dialect == Dialect::kFetchBatch) {
        results = top->FetchBatch(wave.relation, wave.pattern, wave.requests);
      } else {
        std::vector<EncodedTuple> signatures;
        for (const Request& request : wave.requests) {
          signatures.push_back(EncodeSignature(wave.pattern, request));
        }
        for (const EncodedFetchResult& result :
             top->FetchEncoded(wave.relation, wave.pattern, signatures,
                               CallShape::kWave)) {
          results.push_back(DecodeFetchResult(result));
        }
      }
      for (const FetchResult& result : results) {
        run.outcomes.push_back(Outcome(result, wave.relation, wave.pattern));
      }
    }
    run.sleeps = clock.sleeps();
    run.now = clock.NowMicros();
    run.stats = faulty.fault_stats();
    return run;
  }

  Catalog catalog_;
  Database db_;
  FaultPlan plan_;
};

std::string Join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& part : parts) {
    if (!out.empty()) out += " ";
    out += part;
  }
  return out;
}

std::string Join(const std::vector<std::uint64_t>& values) {
  std::vector<std::string> parts;
  for (std::uint64_t v : values) parts.push_back(std::to_string(v));
  return Join(parts);
}

// Per request, in issue order (2 scans, 3 x 8 R^io keys, 2 x 4 S^i).
constexpr const char* kOutcomes =
    "err err "
    "err err err err err err err err "
    "ok1 err err err ok0 err ok0 ok0 "
    "err ok2 ok1 ok0 ok0 ok0 err err "
    "err err err err "
    "ok1 ok1 ok0 ok0";
constexpr const char* kLatencies =
    "48 66 "
    "44 69 54 57 53 59 66 59 "
    "52 60 54 53 50 59 46 52 "
    "49 69 56 53 67 53 59 58 "
    "69 41 68 56 "
    "53 58 44 66";
constexpr std::uint64_t kSerialMicros = 1920;
// Under four workers, wave i of n costs max over workers of the sum of
// its requests' latencies (request j runs on worker j mod 4).
constexpr std::uint64_t kParallelMicros = 618;
constexpr std::uint64_t kInjectedFailures = 21;

TEST_F(FaultSeedTest, SerialRunsArePinnedInEveryDialect) {
  for (Dialect dialect :
       {Dialect::kFetch, Dialect::kFetchBatch, Dialect::kFetchEncoded}) {
    SCOPED_TRACE(static_cast<int>(dialect));
    Observed run = Drive(dialect, 1);
    EXPECT_EQ(Join(run.outcomes), kOutcomes);
    EXPECT_EQ(Join(run.sleeps), kLatencies);
    EXPECT_EQ(run.now, kSerialMicros);
    EXPECT_EQ(run.stats.calls, run.outcomes.size());
    EXPECT_EQ(run.stats.injected_failures, kInjectedFailures);
    EXPECT_EQ(run.stats.injected_latency_micros, kSerialMicros);
  }
}

TEST_F(FaultSeedTest, ParallelRunsMatchTheSerialPins) {
  std::vector<std::uint64_t> expected_sorted = Drive(Dialect::kFetch, 1).sleeps;
  std::sort(expected_sorted.begin(), expected_sorted.end());
  for (Dialect dialect : {Dialect::kFetchBatch, Dialect::kFetchEncoded}) {
    SCOPED_TRACE(static_cast<int>(dialect));
    for (int repetition = 0; repetition < 3; ++repetition) {
      Observed run = Drive(dialect, 4);
      EXPECT_EQ(Join(run.outcomes), kOutcomes);
      std::sort(run.sleeps.begin(), run.sleeps.end());
      EXPECT_EQ(run.sleeps, expected_sorted);
      EXPECT_EQ(run.now, kParallelMicros);
      EXPECT_EQ(run.stats.injected_failures, kInjectedFailures);
      EXPECT_EQ(run.stats.injected_latency_micros, kSerialMicros);
    }
  }
  // A single Fetch through the dispatcher is never fanned out.
  Observed single = Drive(Dialect::kFetch, 4);
  EXPECT_EQ(Join(single.outcomes), kOutcomes);
  EXPECT_EQ(Join(single.sleeps), kLatencies);
  EXPECT_EQ(single.now, kSerialMicros);
}

}  // namespace
}  // namespace ucqn
