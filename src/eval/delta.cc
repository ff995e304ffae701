#include "eval/delta.h"

#include <algorithm>
#include <deque>
#include <unordered_set>
#include <utility>

#include "cost/cost_model.h"
#include "eval/dag_executor.h"
#include "eval/exec_common.h"
#include "feasibility/plan_star.h"

namespace ucqn {

std::vector<Tuple> AppliedDelta::ChangedTuples() const {
  std::vector<Tuple> changed;
  changed.reserve(inserted.size() + deleted.size());
  changed.insert(changed.end(), inserted.begin(), inserted.end());
  changed.insert(changed.end(), deleted.begin(), deleted.end());
  return changed;
}

std::optional<SignedFact> ParseSignedFact(const std::string& line,
                                          std::string* error) {
  if (line.empty() || (line.front() != '+' && line.front() != '-')) {
    *error = "expected a + or - sign before the fact";
    return std::nullopt;
  }
  std::optional<Database> fact = Database::ParseFacts(line.substr(1), error);
  if (!fact) return std::nullopt;
  if (fact->TotalTuples() != 1) {
    *error = "want exactly one fact";
    return std::nullopt;
  }
  SignedFact signed_fact;
  signed_fact.insert = line.front() == '+';
  signed_fact.relation = fact->RelationNames().front();
  signed_fact.tuple = *fact->Find(signed_fact.relation)->begin();
  return signed_fact;
}

std::optional<AppliedDelta> ApplyDelta(Database* db,
                                       const RelationDelta& delta,
                                       std::string* error) {
  auto fail = [&](const std::string& why) -> std::optional<AppliedDelta> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  // Validate the whole batch up front so a bad tuple cannot leave the
  // database half-updated (Database::Insert CHECK-fails where this API
  // must report).
  const std::set<Tuple>* existing = db->Find(delta.relation);
  std::optional<std::size_t> arity;
  if (existing != nullptr && !existing->empty()) {
    arity = existing->begin()->size();
  }
  for (const std::vector<Tuple>* batch : {&delta.deletes, &delta.inserts}) {
    for (const Tuple& tuple : *batch) {
      for (const Term& t : tuple) {
        if (!t.IsGround()) {
          return fail("delta tuples must be ground: " + delta.relation +
                      TupleToString(tuple));
        }
      }
      if (arity.has_value() && tuple.size() != *arity) {
        return fail("delta arity mismatch for " + delta.relation + ": got " +
                    std::to_string(tuple.size()) + ", relation has " +
                    std::to_string(*arity));
      }
      if (!arity.has_value()) arity = tuple.size();
    }
  }

  AppliedDelta applied;
  applied.relation = delta.relation;
  // Deletes first: only tuples actually present vanish, and a tuple also
  // named in `inserts` is about to come back, so it never counts as
  // effectively deleted.
  for (const Tuple& tuple : delta.deletes) {
    if (std::find(delta.inserts.begin(), delta.inserts.end(), tuple) !=
        delta.inserts.end()) {
      continue;
    }
    if (db->Remove(delta.relation, tuple)) applied.deleted.insert(tuple);
  }
  for (const Tuple& tuple : delta.inserts) {
    if (db->Contains(delta.relation, tuple)) continue;
    db->Insert(delta.relation, tuple);
    applied.inserted.insert(tuple);
  }
  return applied;
}

namespace {

using IdSet = std::unordered_set<EncodedTuple, EncodedTupleHash>;

// One relation's effective change as ids, encoded once per batch.
struct IdDelta {
  const std::string* relation;
  SharedRows inserted;  // in set order
  IdSet inserted_set;
  IdSet deleted_set;
};

IdDelta EncodeDelta(const AppliedDelta& delta) {
  const std::size_t arity = delta.inserted.empty()
                                ? delta.deleted.begin()->size()
                                : delta.inserted.begin()->size();
  auto encode = [&](const std::set<Tuple>& tuples, IdSet* set) {
    SharedRows rows = EncodeRows({tuples.begin(), tuples.end()}, arity);
    for (std::size_t r = 0; r < rows->size(); ++r) {
      set->emplace(rows->Row(r), rows->Row(r) + arity);
    }
    return rows;
  };
  IdDelta ids{&delta.relation, nullptr, {}, {}};
  ids.inserted = encode(delta.inserted, &ids.inserted_set);
  encode(delta.deleted, &ids.deleted_set);
  return ids;
}

}  // namespace

// One PLAN* disjunct as a DAG chain keeping every stage's input:
// kept(k) holds the rows surviving stages [0, k), kept(0) the unit row,
// kept(stages()) the witnesses. Rows are duplicate-free derivations, and
// each row's columns reproduce the tuple it used at every earlier stage
// (FetchOperator::Consumed), so deleting a base tuple deletes exactly the
// rows whose derivation used it, with no multiplicity counters.
struct StandingQuery::Chain {
  ConjunctiveQuery plan;
  // In both Qᵘ and Qᵒ (a fully answerable disjunct), or only in Qᵒ (the
  // null-padded answerable part of a partially answerable one).
  bool exact = false;
  std::optional<DagChain> dag;
};

struct StandingQuery::Chains {
  const Catalog* catalog = nullptr;
  // Pattern choice never changes the answer set, only the call cost, and
  // the static model's choice ignores the context, so a stage first
  // reached by a repair picks what a full evaluation would.
  const StaticCostModel model;
  OperatorCounters counters;  // maintenance reports no executor counters
  std::deque<Chain> all;

  // Lowers `chain` afresh, pushes the unit row and drives: a full
  // evaluation. Unlike an execution, every stage keeps its (possibly
  // empty) input, so a later insert can revive the chain anywhere.
  bool Fill(Chain* chain, Source* source, std::string* error) {
    chain->dag.emplace(chain->plan, *catalog, model, &counters,
                       /*keep_inputs=*/true);
    chain->dag->Push(0, ColumnarFrontier());
    return DriveChains({&*chain->dag}, source, ExecutionOptions(), nullptr,
                       &counters, error);
  }

  // Applies one normalized multi-relation update batch to `chain`:
  //
  //   1. a delete pass — drop every kept row whose derivation used a
  //      deleted tuple at a positive stage, or whose anti-join probe now
  //      finds an inserted tuple (anti-join inputs flip sign);
  //   2. per affected stage k, the fresh rows of the surviving base rows
  //      of kept(k) — a delta join with the inserted tuples (positive), or
  //      the rows whose probe tuple was deleted (negated, revived);
  //   3. stage by stage, ascending, the fresh rows are pushed at k + 1
  //      and driven through the remaining stages against the post-update
  //      source before the next stage's are pushed, so calls go out in
  //      derivation order.
  //
  // All delta joins see only the rows kept before this batch (step 3
  // comes last), so a derivation whose first changed position is k is
  // produced there and nowhere else, even under self-joins and
  // multi-relation batches. False on failure, leaving the chain in an
  // unspecified state — refill it.
  bool Repair(const std::vector<IdDelta>& deltas, Chain* chain,
              Source* source, std::string* error) {
    DagChain& dag = *chain->dag;
    const std::size_t n = dag.stages();
    std::vector<const IdDelta*> delta_at(n, nullptr);
    bool affected = false;
    for (std::size_t k = 0; k < n; ++k) {
      for (const IdDelta& delta : deltas) {
        if (*delta.relation == dag.op(k).literal().relation()) {
          delta_at[k] = &delta;
          affected = true;
        }
      }
    }
    if (!affected) return true;
    EncodedTuple tuple;
    auto used = [&](std::size_t k, const ColumnarFrontier& rows,
                    std::size_t r, const IdSet& set) {
      return dag.op(k).Consumed(rows, r, &tuple) && set.count(tuple) > 0;
    };

    // The stages whose change kills kept rows past them, with the tuples
    // that do.
    std::vector<std::pair<std::size_t, const IdSet*>> kills;
    for (std::size_t k = 0; k < n; ++k) {
      if (delta_at[k] == nullptr) continue;
      const IdSet& set = dag.op(k).literal().positive()
                             ? delta_at[k]->deleted_set
                             : delta_at[k]->inserted_set;
      if (!set.empty()) kills.emplace_back(k, &set);
    }
    for (std::size_t s = kills.empty() ? n + 1 : kills.front().first + 1;
         s <= n; ++s) {
      ColumnarFrontier& rows = dag.kept(s);
      std::vector<std::size_t> keep;
      for (std::size_t r = 0; r < rows.rows(); ++r) {
        bool dies = false;
        for (auto [k, set] : kills) {
          if (dies || k >= s) break;
          dies = used(k, rows, r, *set);
        }
        if (!dies) keep.push_back(r);
      }
      if (keep.size() < rows.rows()) rows.Retain(keep);
    }

    std::vector<std::pair<std::size_t, ColumnarFrontier>> fresh;
    for (std::size_t k = 0; k < n; ++k) {
      const ColumnarFrontier& base = dag.kept(k);
      if (delta_at[k] == nullptr || base.rows() == 0) continue;
      FetchOperator& op = dag.op(k);
      ColumnarFrontier rows;
      if (op.literal().positive()) {
        if (delta_at[k]->inserted->empty()) continue;
        // The delta join is the stage's own operator: the kept rows are
        // staged as usual and every request is answered with all inserted
        // rows, as if the source had returned them. Absorb checks every
        // valued slot, input or output, so its binder, repeated-variable
        // and output-slot logic keeps exactly the rows that join.
        PendingWave wave;
        if (!op.Stage(ColumnarFrontier(base), base.rows(), &wave)) {
          *error = op.error();
          return false;
        }
        std::vector<EncodedFetchResult> fetched(
            wave.requests.size(),
            EncodedFetchResult::Ok(delta_at[k]->inserted));
        if (!op.Absorb(std::move(wave), std::move(fetched), &rows)) {
          *error = op.error();
          return false;
        }
      } else {
        std::vector<std::size_t> revived;
        for (std::size_t r = 0; r < base.rows(); ++r) {
          if (used(k, base, r, delta_at[k]->deleted_set)) revived.push_back(r);
        }
        if (revived.empty()) continue;
        rows = base;
        rows.Retain(revived);
      }
      fresh.emplace_back(k + 1, std::move(rows));
    }
    for (auto& [stage, rows] : fresh) {
      if (rows.rows() == 0) continue;
      dag.Push(stage, std::move(rows));
      if (!DriveChains({&dag}, source, ExecutionOptions(), nullptr,
                       &counters, error)) {
        return false;
      }
    }
    return true;
  }
};

StandingQuery::StandingQuery() : chains_(std::make_unique<Chains>()) {}

StandingQuery::~StandingQuery() = default;

std::unique_ptr<StandingQuery> StandingQuery::Build(const UnionQuery& q,
                                                    const Catalog& catalog,
                                                    Source* source,
                                                    std::string* error) {
  std::unique_ptr<StandingQuery> standing(new StandingQuery());
  Chains& chains = *standing->chains_;
  chains.catalog = &catalog;
  for (const DisjunctPlan& disjunct : PlanStar(q, catalog).disjuncts) {
    // An unsatisfiable disjunct is in neither plan; otherwise `over` is the
    // disjunct's Qᵒ plan, and the disjunct is exact when PLAN* put the same
    // plan into Qᵘ.
    if (!disjunct.over.has_value()) continue;
    Chain& chain = chains.all.emplace_back();
    chain.plan = *disjunct.over;
    chain.exact = disjunct.under.has_value();
    if (chain.plan.IsTrueQuery()) {
      ExecutionResult head = ExecuteTrueQuery(chain.plan);
      if (!head.ok) {
        *error = head.error;
        return nullptr;
      }
    }
    for (const Literal& literal : chain.plan.body()) {
      standing->relations_.insert(literal.relation());
    }
    if (!chains.Fill(&chain, source, error)) return nullptr;
  }
  return standing;
}

bool StandingQuery::ApplyDeltas(const std::vector<AppliedDelta>& deltas,
                                Source* source, std::string* error) {
  std::vector<IdDelta> changes;
  for (const AppliedDelta& delta : deltas) {
    if (!delta.empty() && relations_.count(delta.relation) > 0) {
      changes.push_back(EncodeDelta(delta));
    }
  }
  for (Chain& chain : chains_->all) {
    std::string maintain_error;
    std::string rebuild_error;
    if (chains_->Repair(changes, &chain, source, &maintain_error) ||
        chains_->Fill(&chain, source, &rebuild_error)) {
      continue;
    }
    error_ = "maintenance failed (" + maintain_error +
             "); rebuild failed: " + rebuild_error;
    // Parked: no frontier is read again, and later batches find no chain
    // to maintain.
    chains_->all.clear();
    break;
  }
  if (error_.empty()) return true;
  *error = error_;
  return false;
}

AnswerBracket StandingQuery::Answers() const {
  AnswerBracket bracket;
  if (!error_.empty()) {
    bracket.error = error_;
    return bracket;
  }
  // The executor's head rule over the retained witnesses: Qᵘ is the
  // exact chains, Qᵒ every chain.
  ExecutionResult under;
  ExecutionResult over;
  under.ok = over.ok = true;
  for (const Chain& chain : chains_->all) {
    const ColumnarFrontier& witnesses = chain.dag->kept(chain.dag->stages());
    if (chain.exact && under.ok) {
      ProjectHeadColumns(chain.plan, witnesses, &under);
    }
    if (over.ok) ProjectHeadColumns(chain.plan, witnesses, &over);
  }
  AssembleBracket(std::move(under), std::move(over), &bracket);
  return bracket;
}

}  // namespace ucqn
