#ifndef UCQN_EVAL_SOURCE_H_
#define UCQN_EVAL_SOURCE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dict/term_dictionary.h"
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

// The rows one source call returned, as dictionary ids: size() rows of
// arity() ids each, row-major in one flat array. Every id names a ground
// term (TermDictionary::kNullId for the Δ-null). Immutable once shared —
// the shared cache hands the same rows to every execution that hits.
class EncodedRows {
 public:
  explicit EncodedRows(std::size_t arity) : arity_(arity) {}

  std::size_t arity() const { return arity_; }
  std::size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }
  const std::uint32_t* Row(std::size_t r) const {
    return ids_.data() + r * arity_;
  }

  // Appends one row of arity() ids.
  void Append(const std::uint32_t* row) {
    ids_.insert(ids_.end(), row, row + arity_);
    ++rows_;
  }

 private:
  std::size_t arity_;
  std::size_t rows_ = 0;
  std::vector<std::uint32_t> ids_;
};

using SharedRows = std::shared_ptr<const EncodedRows>;

// How a request reached the stack: on its own (a single Fetch) or as
// part of a wave (FetchBatch, the executor's waves). Results never
// depend on it. Metering times a lone call into its per-call latency
// histogram and a wave as one unit, a parallel dispatcher fans out only
// waves, and a string-only source answers a lone call through Fetch.
enum class CallShape { kSingle, kWave };

// FetchResult's encoded counterpart: `rows` is set exactly when ok().
struct EncodedFetchResult {
  FetchStatus status = FetchStatus::kOk;
  std::string error;
  SharedRows rows;

  bool ok() const { return status == FetchStatus::kOk; }

  static EncodedFetchResult Ok(SharedRows rows) {
    EncodedFetchResult r;
    r.rows = std::move(rows);
    return r;
  }
  static EncodedFetchResult Error(FetchStatus status, std::string error) {
    EncodedFetchResult r;
    r.status = status;
    r.error = std::move(error);
    return r;
  }
};

// The string <-> id boundary of the Source interface, against the
// process-wide TermDictionary.
//
// A call signature has one id per slot: the input value's id at input
// slots that carry a ground value, TermDictionary::kAbsentId everywhere
// else — output slots never carry a value (footnote 4).
EncodedTuple EncodeSignature(const AccessPattern& pattern,
                             const std::vector<std::optional<Term>>& inputs);
std::vector<std::optional<Term>> DecodeSignature(const EncodedTuple& signature);
// Tuples that can never unify with an `arity`-slot literal — a different
// arity, or a non-ground term — are dropped here.
SharedRows EncodeRows(const std::vector<Tuple>& tuples, std::size_t arity);
std::vector<Tuple> DecodeRows(const EncodedRows& rows);
EncodedFetchResult EncodeFetchResult(FetchResult result, std::size_t arity);
FetchResult DecodeFetchResult(const EncodedFetchResult& result);

// The runtime face of a relation with access patterns: one Fetch per
// web-service operation (Section 1). Implementations must enforce the
// pattern — a call that fails to supply a value for every input slot is a
// contract violation (a programming error, CHECK-failed), while transport
// failures are reported through FetchResult's status channel.
//
// A Source speaks two dialects. The string calls (Fetch, FetchBatch)
// carry Terms and Tuples; the encoded call (FetchEncoded) carries
// dictionary ids and returns shared, immutable rows, which is what the
// operator DAG and the runtime decorators run on. A string-only source
// overrides Fetch (pure here, so a source that implements no call does
// not compile) and inherits an encoded call that decodes, calls
// FetchBatch and encodes; an id-native one derives from EncodedSource,
// whose string calls encode and call FetchEncoded. Either kind works at
// any position of a stack.
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
  // answers inputs[i], in order. The default loops over Fetch, so plain
  // sources keep sequential behavior and stats. Overrides must preserve
  // per-request semantics: batching is a transport optimization, never a
  // semantic change.
  virtual std::vector<FetchResult> FetchBatch(
      const std::string& relation, const AccessPattern& pattern,
      const std::vector<std::vector<std::optional<Term>>>& inputs);

  // The same wave in ids: signature i (see EncodeSignature) asks what
  // inputs[i] asks, and result i holds its rows. `shape` is kSingle
  // only for one request that came as a single call. The default adapts
  // a string-only source: it decodes the signatures, makes one Fetch
  // (kSingle) or FetchBatch (kWave) and encodes the tuples, dropping
  // those EncodeRows drops.
  virtual std::vector<EncodedFetchResult> FetchEncoded(
      const std::string& relation, const AccessPattern& pattern,
      const std::vector<EncodedTuple>& signatures, CallShape shape);

  // True when a repeated call may be answered from a cache instead of the
  // transport (runtime/caching_source.h, a caching SourceStack's top).
  virtual bool Caches() const { return false; }

  // Convenience for call sites whose source cannot fail (in-memory
  // databases, tests): returns the tuples, CHECK-failing on any error.
  std::vector<Tuple> FetchOrDie(
      const std::string& relation, const AccessPattern& pattern,
      const std::vector<std::optional<Term>>& inputs);
};

// A Source whose one fetch body is FetchEncoded (the runtime decorators).
// Its string calls encode the request, make one encoded call (kSingle
// for Fetch, kWave for FetchBatch) and decode the rows back, so a string
// caller anywhere above it — a test source, a timing wrapper — reaches
// that same body.
class EncodedSource : public Source {
 public:
  FetchResult Fetch(const std::string& relation, const AccessPattern& pattern,
                    const std::vector<std::optional<Term>>& inputs) final;
  std::vector<FetchResult> FetchBatch(
      const std::string& relation, const AccessPattern& pattern,
      const std::vector<std::vector<std::optional<Term>>>& inputs) final;
  std::vector<EncodedFetchResult> FetchEncoded(
      const std::string& relation, const AccessPattern& pattern,
      const std::vector<EncodedTuple>& signatures,
      CallShape shape) override = 0;
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
