#ifndef UCQN_BENCH_E2E_REPLAY_H_
#define UCQN_BENCH_E2E_REPLAY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "eval/database.h"
#include "server/protocol.h"
#include "workloads.h"

namespace ucqn::e2e {

// How one query of a phase ended. Times are real (steady_clock) except
// `sim_micros`, the simulated-clock advance the request caused. Trivial,
// so a phase's record buffer is allocated untouched and only the records
// written count toward the process's memory.
struct RequestRecord {
  std::uint64_t index;   // stream position
  std::uint64_t digest;  // AnswerDigest of the response (ok only)
  std::uint32_t latency_ns;  // saturates at ~4.3 s
  std::uint32_t done_us;     // completion, from the phase start
  std::uint32_t sim_micros;
  std::uint32_t physical_calls;  // as the response reports them
  std::uint32_t request_bytes;
  std::uint32_t response_bytes;
  ServiceResponse::Status status;
};

// One `delta` op of a phase.
struct WriteRecord {
  std::uint64_t index = 0;  // the stream index it was submitted before
  bool ok = false;
  std::uint64_t latency_ns = 0;
  std::uint64_t done_us = 0;  // completion, from the phase start
  std::uint64_t standing_updated = 0;
  std::uint64_t maintenance_calls = 0;
};

// Sends one protocol line and returns the response line: the daemon's
// SubmitLine in untraced runs, the traced mirror otherwise.
using Submitter = std::function<std::string(const std::string& line)>;

struct PhaseOptions {
  std::uint64_t first = 0;  // stream index of the phase's first request
  // Requests to run; 0 = until the deadline or the end of the stream.
  std::uint64_t limit = 0;
  // Clients stop taking requests after this many seconds; 0 = none.
  double seconds = 0.0;
  int clients = 1;
  Submitter submit_query;
  Submitter submit_write;
};

struct PhaseResult {
  // The phase's queries in stream order: record i is request first + i.
  std::span<const RequestRecord> requests() const {
    return {records.get(), count};
  }
  std::unique_ptr<RequestRecord[]> records;
  std::size_t count = 0;
  std::vector<WriteRecord> writes;
  double wall_seconds = 0.0;
  // Transport calls and simulated time during the phase.
  std::uint64_t backend_calls = 0;
  std::uint64_t sim_micros = 0;
  // One past the last stream index the phase ran (its delta batches
  // included).
  std::uint64_t end_index = 0;
};

// Closed loop: each client takes the next stream index, submits the delta
// batches pinned before it, then the query, and waits for the answer.
// Response lines are parsed after the latency timer stops.
PhaseResult RunPhase(Deployment& deployment, const PhaseOptions& options);

// Order-independent digest of one answer: FNV-1a over the under and over
// sets (workload_replay.cc's ResponseHash without the request index).
std::uint64_t AnswerDigest(const std::set<Tuple>& under,
                           const std::set<Tuple>& over);

// XOR of per-request digests mixed with their stream index, over the
// first 1024·2^k requests of a phase for each k that fits: two runs of
// the same stream answered alike iff their digests at a common length
// match, whatever lengths their deadlines gave them.
std::map<std::uint64_t, std::uint64_t> PrefixDigests(
    std::span<const RequestRecord> records);

struct Verdict {
  std::uint64_t checked = 0;
  std::uint64_t wrong = 0;
  std::string first_error;
};

// Checks every ok response against the reference ANSWER*: a plain
// DatabaseSource with the per-binding loop (ExecutionOptions::batch off),
// at the database version the request saw, memoized per template and
// version of the relations it reads.
Verdict VerifyRequests(const Deployment& deployment,
                       std::span<const RequestRecord> records);

// Reads every standing query back through the `answers` op and checks it
// against a fresh reference at the database version after `end_index`.
Verdict VerifyStanding(Deployment& deployment, std::uint64_t end_index);

}  // namespace ucqn::e2e

#endif  // UCQN_BENCH_E2E_REPLAY_H_
