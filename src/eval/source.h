#ifndef UCQN_EVAL_SOURCE_H_
#define UCQN_EVAL_SOURCE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "eval/database.h"
#include "schema/catalog.h"

namespace ucqn {

// Accounting for calls against a limited-access source — the observable
// "cost" of a plan when sources are remote web services.
struct SourceStats {
  std::uint64_t calls = 0;
  std::uint64_t tuples_returned = 0;

  void Reset() { *this = SourceStats{}; }
};

// Outcome of a source call. In-memory sources always succeed; sources that
// model (or are) remote services can fail transiently, and the runtime
// layer (src/runtime/) retries, budgets, and reports those failures
// instead of aborting the process.
enum class FetchStatus {
  kOk,
  // The call failed in a way that may succeed if retried (network blip,
  // throttling, service restart).
  kTransientError,
  // A per-query call or deadline budget refused the call; retrying within
  // the same query cannot succeed.
  kBudgetExhausted,
};

// Status-or-tuples result of Source::Fetch. `tuples` is meaningful only
// when ok(); `error` is meaningful only when !ok().
struct FetchResult {
  FetchStatus status = FetchStatus::kOk;
  std::string error;
  std::vector<Tuple> tuples;

  bool ok() const { return status == FetchStatus::kOk; }

  static FetchResult Ok(std::vector<Tuple> tuples) {
    FetchResult r;
    r.tuples = std::move(tuples);
    return r;
  }
  static FetchResult TransientError(std::string error) {
    FetchResult r;
    r.status = FetchStatus::kTransientError;
    r.error = std::move(error);
    return r;
  }
  static FetchResult BudgetExhausted(std::string error) {
    FetchResult r;
    r.status = FetchStatus::kBudgetExhausted;
    r.error = std::move(error);
    return r;
  }
};

// The runtime face of a relation with access patterns: one Fetch per
// web-service operation (Section 1). Implementations must enforce the
// pattern — a call that fails to supply a value for every input slot is a
// contract violation (a programming error, CHECK-failed), while transport
// failures are reported through FetchResult's status channel.
class Source {
 public:
  virtual ~Source() = default;

  // Calls `relation` through `pattern`. `inputs` has one entry per slot;
  // entries at input slots must hold ground terms, entries at output slots
  // are ignored. On success returns every tuple of the relation agreeing
  // with the supplied input values. Note the source does NOT filter on
  // output slots — per the paper's footnote 4, output-side selections are
  // the caller's job.
  virtual FetchResult Fetch(
      const std::string& relation, const AccessPattern& pattern,
      const std::vector<std::optional<Term>>& inputs) = 0;

  // One wave of calls against the same (relation, pattern): result i
  // answers inputs[i], in order. The executor issues each literal's full
  // set of per-binding calls through this so the runtime stack can overlap
  // them (runtime/parallel_source.h); the default implementation simply
  // loops over Fetch, so plain sources keep today's sequential behavior
  // and stats. Overrides must preserve per-request semantics: batching is
  // a transport optimization, never a semantic change.
  virtual std::vector<FetchResult> FetchBatch(
      const std::string& relation, const AccessPattern& pattern,
      const std::vector<std::vector<std::optional<Term>>>& inputs);

  // True when a repeated call may be answered from a cache instead of the
  // transport (runtime/caching_source.h, a caching SourceStack's top).
  virtual bool Caches() const { return false; }

  // Convenience for call sites whose source cannot fail (in-memory
  // databases, tests): returns the tuples, CHECK-failing on any error.
  std::vector<Tuple> FetchOrDie(
      const std::string& relation, const AccessPattern& pattern,
      const std::vector<std::optional<Term>>& inputs);
};

// A `Source` serving an in-memory Database, enforcing the catalog's
// declared patterns and recording per-relation statistics. This is the
// simulated stand-in for the paper's remote web services: identical
// interface contract (values required at input slots, no output-side
// filtering), with call accounting in place of network cost.
//
// Fetch is safe to call from multiple threads (a ParallelSource worker
// pool fans batched waves out over the transport); the database itself is
// read-only during execution, so only the statistics need the lock. The
// stats accessors are meant for after-the-wave inspection, not for
// concurrent reading while a wave is in flight.
class DatabaseSource : public Source {
 public:
  // Does not take ownership; `db` and `catalog` must outlive the source.
  DatabaseSource(const Database* db, const Catalog* catalog)
      : db_(db), catalog_(catalog) {}

  FetchResult Fetch(
      const std::string& relation, const AccessPattern& pattern,
      const std::vector<std::optional<Term>>& inputs) override;

  // Aggregate statistics across all relations.
  const SourceStats& stats() const { return stats_; }
  // Per-relation statistics (empty entry if never called).
  const std::map<std::string, SourceStats>& per_relation_stats() const {
    return per_relation_stats_;
  }
  void ResetStats();

 private:
  const Database* db_;
  const Catalog* catalog_;
  std::mutex mu_;
  SourceStats stats_;
  std::map<std::string, SourceStats> per_relation_stats_;
};

}  // namespace ucqn

#endif  // UCQN_EVAL_SOURCE_H_
