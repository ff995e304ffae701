#ifndef UCQN_EVAL_DELTA_H_
#define UCQN_EVAL_DELTA_H_

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ast/query.h"
#include "eval/answer_star.h"
#include "eval/database.h"
#include "eval/source.h"
#include "schema/catalog.h"

namespace ucqn {

// ---------------------------------------------------------------------------
// Delta feeds: per-relation insert/delete tuple sets, propagated through the
// materialized per-disjunct chains of a standing query so answers stay
// current without re-running unaffected literals (ROADMAP "incremental
// evaluation under source updates"; Kara/Nikolic/Olteanu/Zhang's
// delta-propagation discipline specialised to the left-to-right executable
// plans PLAN* emits).
// ---------------------------------------------------------------------------

// One relation's update batch as the client states it. Deletes apply before
// inserts, so R_new = (R_old \ deletes) ∪ inserts: a tuple named in both
// sets ends up present (delete-then-reinsert within one batch is a no-op).
struct RelationDelta {
  std::string relation;
  std::vector<Tuple> inserts;
  std::vector<Tuple> deletes;
};

// The same update normalized against the pre-update instance: `inserted`
// holds only tuples that actually appeared (I \ R_old), `deleted` only
// tuples that actually vanished ((R_old ∩ D) \ I). Maintenance and scoped
// cache invalidation both work off the effective sets, so a delta that
// re-states existing tuples touches nothing.
struct AppliedDelta {
  std::string relation;
  std::set<Tuple> inserted;
  std::set<Tuple> deleted;

  bool empty() const { return inserted.empty() && deleted.empty(); }
  // inserted ∪ deleted — the tuples a cache entry must be probed against.
  std::vector<Tuple> ChangedTuples() const;
};

// One signed fact line as clients write updates: `+R(1, 2).` inserts the
// tuple, `-R(1, 2).` deletes it; the fact uses the facts grammar
// (Database::ParseFacts).
struct SignedFact {
  bool insert = true;
  std::string relation;
  Tuple tuple;
};

// Parses one signed fact line (no surrounding whitespace). Returns
// nullopt and sets `*error` to one line when the sign is missing, the
// fact does not parse, or the line holds other than exactly one fact.
std::optional<SignedFact> ParseSignedFact(const std::string& line,
                                          std::string* error);

// Applies `delta` to `db` (deletes first, then inserts) and returns the
// effective delta. Returns nullopt and sets `*error` (when non-null) on
// non-ground tuples or an arity mismatch with existing rows of the
// relation; `db` is left unchanged on error.
std::optional<AppliedDelta> ApplyDelta(Database* db, const RelationDelta& delta,
                                       std::string* error = nullptr);

// A registered standing query: one operator-DAG chain (eval/dag_executor.h)
// per satisfiable PLAN* disjunct, every stage's input retained as id
// columns and kept current under delta feeds. A chain is *exact* (a fully
// answerable disjunct, in both Qᵘ and Qᵒ) or *padded* (null-padded, Qᵒ
// only), so each disjunct is built and maintained once. Build once (a
// full evaluation), then ApplyDeltas after each update batch; Answers()
// projects the retained witnesses without touching any source. Build,
// repair and rebuild all fetch through the DAG driver.
class StandingQuery {
 public:
  ~StandingQuery();

  // Compiles `q` with PLAN* and evaluates every chain against `source`.
  // Returns nullptr and sets `*error` on a source failure, or when a
  // reached literal has no usable access pattern at its position. The
  // chains keep pointers into `catalog`, which must outlive the query.
  static std::unique_ptr<StandingQuery> Build(const UnionQuery& q,
                                              const Catalog& catalog,
                                              Source* source,
                                              std::string* error);

  // Relations any maintained stage reads — the standing query's read set.
  const std::set<std::string>& relations() const { return relations_; }

  // Maintains every chain for one update batch. The database behind
  // `source` must already hold the post-update state for all relations in
  // `deltas` (apply the whole batch with ApplyDelta first, then call this
  // once — not once per relation with interleaved database updates).
  // A chain whose incremental repair fails is rebuilt from its recorded
  // stages against `source`; if that fails too, the query parks: it
  // returns false and sets `*error`, and from then on Answers() reports
  // the error and later batches are refused the same way.
  bool ApplyDeltas(const std::vector<AppliedDelta>& deltas, Source* source,
                   std::string* error);

  // Projects the maintained frontiers into the ANSWER* bracket —
  // byte-identical to a fresh AnswerStar on the current instance, or
  // ok = false with the error once the query has parked.
  AnswerBracket Answers() const;

 private:
  // The chains; defined in delta.cc, which owns the maintenance
  // machinery.
  struct Chain;
  struct Chains;

  StandingQuery();

  std::unique_ptr<Chains> chains_;
  std::set<std::string> relations_;
  // Non-empty once the query has parked.
  std::string error_;
};

}  // namespace ucqn

#endif  // UCQN_EVAL_DELTA_H_
