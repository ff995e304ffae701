#ifndef UCQN_SERVER_PROTOCOL_H_
#define UCQN_SERVER_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "eval/database.h"

namespace ucqn {

// The ucqnd wire protocol: line-delimited JSON, one request object per
// line in, one response object per line out, strictly in request order
// per connection. Keeping the framing trivial (split on '\n', parse each
// line independently) means any client — a shell pipe, netcat on the
// Unix socket, a test — can speak it, and a malformed line poisons only
// itself, mirroring the per-block recovery of `ucqnc --queries`.
//
// Request lines:
//   {"op": "query", "id": "q1", "tenant": "alice",
//    "query": "Q(x) :- L(x).", "max_calls": 100, "answers": true}
//   {"op": "query", "id": "q1", "query": "...", "standing": true}
//   {"op": "stats"}
//   {"op": "invalidate", "relation": "B"}   // omit relation: drop all
//   {"op": "snapshot"}                      // spill cache+stats now
//   {"op": "delta", "relation": "B", "insert": [["1", "2"]],
//    "delete": [["3", "4"]]}                // update one relation's feed
//   {"op": "answers", "id": "q1"}           // read a standing query back
//
// `op` defaults to "query"; `tenant` defaults to "default"; `id` is an
// opaque client correlation tag echoed back verbatim. `max_calls`
// requests a per-query physical-call budget (clamped by the tenant
// quota); `answers": false` suppresses the tuple payload for
// count-only clients. A query with `"standing": true` additionally
// registers (or replaces) the query under (tenant, id) as a standing
// query whose answers the daemon maintains under `delta` ops; `answers`
// ops read the maintained result back without re-running anything.
struct ServiceRequest {
  enum class Op { kQuery, kStats, kInvalidate, kSnapshot, kDelta, kAnswers };

  Op op = Op::kQuery;
  std::string id;
  std::string tenant = "default";
  std::string query;      // kQuery: the UCQ¬ text, parser syntax
  std::string relation;   // kInvalidate: empty = InvalidateAll; kDelta
  std::uint64_t max_calls = 0;  // kQuery: 0 = no per-request cap
  bool include_answers = true;
  bool standing = false;  // kQuery: register as a standing query
  // kDelta: the update batch. Deletes apply before inserts, so a tuple in
  // both sets ends up present.
  std::vector<Tuple> insert_tuples;
  std::vector<Tuple> delete_tuples;

  // One line, no trailing newline — the inverse of ParseServiceRequest
  // (fields at their defaults are omitted), so a client can hand any
  // request ParseServiceRequest accepts to a daemon over the wire.
  std::string ToJsonLine() const;
};

// Parses one request line. Returns nullopt and sets `*error` on
// malformed JSON, an unknown op, or a query op without a query.
std::optional<ServiceRequest> ParseServiceRequest(const std::string& line,
                                                  std::string* error);

// Response lines. `status` is the admission/expiry story in one word:
//   ok       — the query ran; payload fields are meaningful
//   error    — the query ran into an error (parse, schema, source)
//   shed     — admission refused: queue full (back off and retry)
//   draining — the daemon is shutting down; no new work is accepted
//   quota    — the tenant is over its concurrent-request quota
struct ServiceResponse {
  enum class Status { kOk, kError, kShed, kDraining, kQuotaRefused };

  Status status = Status::kOk;
  std::string id;       // echo of the request's id
  std::string tenant;   // echo of the request's tenant
  std::string error;    // meaningful when status != kOk

  // Query payload (status == kOk on a query op).
  std::set<Tuple> under;
  std::set<Tuple> over;
  bool complete = false;
  bool include_answers = true;
  std::uint64_t physical_calls = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  // Raw JSON payload for admin ops (stats/snapshot); embedded verbatim
  // under a "payload" key when non-empty.
  std::string payload_json;

  static const char* StatusWord(Status status);

  // One line, no trailing newline. Tuples serialize as arrays of
  // constants (JSON strings) with the distinguished null as JSON null:
  //   {"id": "q1", "tenant": "alice", "status": "ok", "under": [["a"]],
  //    "over": [["a"], ["b", null]], "complete": false, ...}
  std::string ToJsonLine() const;
};

// Parses a response line back into a structure — the client half of the
// protocol, used by tests, the benches and the workload replay's wire
// transport. Unknown keys are ignored. Returns nullopt and sets `*error`
// on malformed input.
std::optional<ServiceResponse> ParseServiceResponse(const std::string& line,
                                                    std::string* error);

}  // namespace ucqn

#endif  // UCQN_SERVER_PROTOCOL_H_
