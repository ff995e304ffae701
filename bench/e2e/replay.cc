#include "replay.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "ast/parser.h"
#include "eval/answer_star.h"
#include "eval/delta.h"
#include "util/json.h"

namespace ucqn::e2e {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t FnvMix(std::uint64_t hash, const std::string& bytes) {
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

std::uint64_t Nanos(Clock::duration d) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

std::uint32_t Saturate32(std::uint64_t value) {
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(value, std::numeric_limits<std::uint32_t>::max()));
}

std::uint64_t IndexedDigest(const RequestRecord& record) {
  std::uint64_t hash = FnvMix(kFnvOffset, std::to_string(record.index));
  hash ^= record.digest;
  return hash * kFnvPrime;
}

// Applies every delta batch pinned before stream index `until` that
// `next` has not reached yet, bumping the version of each relation that
// actually changed.
bool ApplyBatchesBefore(
    std::uint64_t until,
    std::map<std::uint64_t, std::vector<RelationDelta>>::const_iterator* next,
    std::map<std::uint64_t, std::vector<RelationDelta>>::const_iterator end,
    Database* db, std::map<std::string, std::uint64_t>* versions,
    std::string* error) {
  for (; *next != end && (*next)->first < until; ++*next) {
    for (const RelationDelta& delta : (*next)->second) {
      std::optional<AppliedDelta> applied = ApplyDelta(db, delta, error);
      if (!applied.has_value()) return false;
      if (!applied->empty()) ++(*versions)[delta.relation];
    }
  }
  return true;
}

// The reference ANSWER*: the per-binding loop over a plain source.
AnswerStarReport ReferenceAnswer(const UnionQuery& query,
                                 const Catalog& catalog, Source* source) {
  ExecutionOptions options;
  options.batch = false;
  return AnswerStar(query, catalog, source, options);
}

}  // namespace

std::uint64_t AnswerDigest(const std::set<Tuple>& under,
                           const std::set<Tuple>& over) {
  std::uint64_t hash = kFnvOffset;
  for (const Tuple& tuple : under) {
    hash = FnvMix(FnvMix(hash, "u"), TupleToString(tuple));
  }
  for (const Tuple& tuple : over) {
    hash = FnvMix(FnvMix(hash, "o"), TupleToString(tuple));
  }
  return hash;
}

PhaseResult RunPhase(Deployment& deployment, const PhaseOptions& options) {
  const std::uint64_t end =
      options.limit > 0
          ? std::min(deployment.stream_size(), options.first + options.limit)
          : deployment.stream_size();
  const int clients = std::max(options.clients, 1);
  const bool serial = clients == 1;
  std::atomic<std::uint64_t> next{options.first};
  PhaseResult result;
  // Clients claim stream indices in order and write their own slots.
  result.records.reset(new RequestRecord[end - options.first]);
  std::vector<std::vector<WriteRecord>> writes(
      static_cast<std::size_t>(clients));

  const std::uint64_t calls_before = deployment.backend_calls();
  const std::uint64_t sim_before = deployment.clock().NowMicros();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));

  auto client = [&](std::size_t c) {
    for (;;) {
      if (options.seconds > 0.0 && Clock::now() >= deadline) break;
      const std::uint64_t r = next.fetch_add(1);
      if (r >= end) break;
      for (const std::string& line : deployment.DeltaLines(r)) {
        const Clock::time_point t0 = Clock::now();
        const std::string response = options.submit_write(line);
        const Clock::time_point t1 = Clock::now();
        WriteRecord write;
        write.index = r;
        write.latency_ns = Nanos(t1 - t0);
        write.done_us = Nanos(t1 - start) / 1000;
        std::optional<ServiceResponse> parsed =
            ParseServiceResponse(response, nullptr);
        write.ok = parsed.has_value() &&
                   parsed->status == ServiceResponse::Status::kOk;
        if (write.ok) {
          std::optional<JsonValue> payload = ParseJson(parsed->payload_json);
          if (payload.has_value()) {
            write.standing_updated = static_cast<std::uint64_t>(
                payload->GetNumber("standing_updated"));
            write.maintenance_calls = static_cast<std::uint64_t>(
                payload->GetNumber("physical_calls"));
          }
        }
        writes[c].push_back(write);
      }
      const std::string line = deployment.QueryLine(r);
      const std::uint64_t sim0 = serial ? deployment.clock().NowMicros() : 0;
      const Clock::time_point t0 = Clock::now();
      const std::string response = options.submit_query(line);
      const Clock::time_point t1 = Clock::now();
      const std::uint64_t sim1 = serial ? deployment.clock().NowMicros() : 0;

      RequestRecord& record = result.records[r - options.first];
      record.index = r;
      record.digest = 0;
      record.physical_calls = 0;
      record.latency_ns = Saturate32(Nanos(t1 - t0));
      record.done_us = Saturate32(Nanos(t1 - start) / 1000);
      record.sim_micros = Saturate32(sim1 - sim0);
      record.request_bytes = Saturate32(line.size());
      record.response_bytes = Saturate32(response.size());
      std::optional<ServiceResponse> parsed =
          ParseServiceResponse(response, nullptr);
      record.status = parsed.has_value() ? parsed->status
                                         : ServiceResponse::Status::kError;
      if (record.status == ServiceResponse::Status::kOk) {
        record.digest = AnswerDigest(parsed->under, parsed->over);
        record.physical_calls = Saturate32(parsed->physical_calls);
      }
    }
  };

  if (serial) {
    client(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back(client, static_cast<std::size_t>(c));
    }
    for (std::thread& thread : threads) thread.join();
  }
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.backend_calls = deployment.backend_calls() - calls_before;
  result.sim_micros = deployment.clock().NowMicros() - sim_before;
  result.end_index = std::min(next.load(), end);
  result.count = result.end_index - options.first;
  for (const std::vector<WriteRecord>& client_writes : writes) {
    result.writes.insert(result.writes.end(), client_writes.begin(),
                         client_writes.end());
  }
  return result;
}

std::map<std::uint64_t, std::uint64_t> PrefixDigests(
    std::span<const RequestRecord> records) {
  std::map<std::uint64_t, std::uint64_t> digests;
  std::uint64_t digest = 0;
  std::uint64_t checkpoint = 1024;
  for (std::size_t i = 0; i < records.size(); ++i) {
    digest ^= IndexedDigest(records[i]);
    if (i + 1 == checkpoint) {
      digests[checkpoint] = digest;
      checkpoint *= 2;
    }
  }
  return digests;
}

Verdict VerifyRequests(const Deployment& deployment,
                       std::span<const RequestRecord> records) {
  Verdict verdict;
  const WorkloadSpec& spec = deployment.spec();
  Database db = spec.database;
  DatabaseSource source(&db, &spec.catalog);
  std::map<std::string, std::uint64_t> versions;
  auto next_batch = deployment.deltas().cbegin();

  std::vector<std::optional<UnionQuery>> queries(spec.queries.size());
  std::unordered_map<std::string, std::uint64_t> memo;
  for (const RequestRecord& record : records) {
    std::string error;
    // Batches pinned at an index run before that index's query.
    if (!ApplyBatchesBefore(record.index + 1, &next_batch,
                            deployment.deltas().cend(), &db, &versions,
                            &error)) {
      verdict.first_error = "reference delta rejected: " + error;
      ++verdict.wrong;
      return verdict;
    }
    if (record.status != ServiceResponse::Status::kOk) continue;
    ++verdict.checked;
    const std::size_t t = deployment.template_of(record.index);
    if (!queries[t].has_value()) {
      queries[t] = ParseUnionQuery(spec.queries[t], &error);
      if (!queries[t].has_value()) {
        verdict.first_error = "template " + std::to_string(t) + ": " + error;
        ++verdict.wrong;
        return verdict;
      }
    }
    std::string key = std::to_string(t);
    for (const std::string& relation : queries[t]->RelationNames()) {
      const auto v = versions.find(relation);
      key += ' ' + std::to_string(v == versions.end() ? 0 : v->second);
    }
    auto [memo_it, fresh] = memo.try_emplace(key, 0);
    if (fresh) {
      const AnswerStarReport reference =
          ReferenceAnswer(*queries[t], spec.catalog, &source);
      memo_it->second = reference.ok
                            ? AnswerDigest(reference.under, reference.over)
                            : ~record.digest;
    }
    if (memo_it->second != record.digest) {
      if (verdict.wrong == 0) {
        verdict.first_error = "request " + std::to_string(record.index) +
                              " (template " + std::to_string(t) +
                              ") differs from the reference ANSWER*";
      }
      ++verdict.wrong;
    }
  }
  return verdict;
}

Verdict VerifyStanding(Deployment& deployment, std::uint64_t end_index) {
  Verdict verdict;
  const WorkloadSpec& spec = deployment.spec();
  Database db = spec.database;
  DatabaseSource source(&db, &spec.catalog);
  std::map<std::string, std::uint64_t> versions;
  auto next_batch = deployment.deltas().cbegin();
  std::string error;
  if (!ApplyBatchesBefore(end_index, &next_batch, deployment.deltas().cend(),
                          &db, &versions, &error)) {
    verdict.first_error = "reference delta rejected: " + error;
    ++verdict.wrong;
    return verdict;
  }
  for (std::size_t i = 0; i < deployment.standing_ids().size(); ++i) {
    const std::string& id = deployment.standing_ids()[i];
    ++verdict.checked;
    std::optional<ServiceResponse> maintained = ParseServiceResponse(
        deployment.daemon().SubmitLine("{\"op\": \"answers\", \"id\": \"" +
                                       id + "\", \"tenant\": \"t0\"}"),
        &error);
    std::optional<UnionQuery> query =
        ParseUnionQuery(spec.queries[i], &error);
    const bool ok = maintained.has_value() && query.has_value() &&
                    maintained->status == ServiceResponse::Status::kOk;
    const AnswerStarReport reference =
        ok ? ReferenceAnswer(*query, spec.catalog, &source) : AnswerStarReport{};
    if (!ok || !reference.ok || maintained->under != reference.under ||
        maintained->over != reference.over ||
        maintained->complete != reference.complete) {
      if (verdict.wrong == 0) {
        verdict.first_error =
            "standing query " + id + " differs from the reference ANSWER*";
      }
      ++verdict.wrong;
    }
  }
  return verdict;
}

}  // namespace ucqn::e2e
