#include "eval/delta.h"

#include <algorithm>
#include <utility>

#include "ast/substitution.h"
#include "cost/cost_model.h"
#include "eval/exec_common.h"
#include "feasibility/plan_star.h"
#include "schema/adornment.h"

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

// One stage of a materialized chain: the literal and the access pattern it
// was compiled with. Patterns never change the answer set (only the call
// cost), so the Build-time choice is recorded once and reused for every
// maintenance and rebuild fetch.
struct MaintainedStage {
  Literal literal;
  AccessPattern pattern;
};

// One PLAN* disjunct with every intermediate binding frontier retained —
// the chain-granular build-side state of the operator DAG (AccessScan →
// HashJoin → HashAntiJoin → Materialize), kept as per-stage substitution
// frontiers. frontiers[k] holds the rows surviving stages [0, k):
// frontiers[0] is the single empty binding, frontiers[n] the full witness
// set. Rows are duplicate-free derivations — each row bijectively
// determines the tuple it used at every earlier positive stage — so set
// maintenance needs no multiplicity counters: deleting a base tuple
// deletes exactly the rows whose recorded derivation used it.
struct MaintainedChain {
  ConjunctiveQuery plan;
  // In both Qᵘ and Qᵒ (a fully answerable disjunct), or only in Qᵒ (the
  // null-padded answerable part of a partially answerable one).
  bool exact = false;
  std::vector<MaintainedStage> stages;
  std::vector<std::vector<Substitution>> frontiers;
};

// Appends `rows` to frontiers[from] and extends them through the remaining
// stages with ordinary fetches against the current instance, appending
// the survivors at every level. The only fetch loop of maintenance: it
// fills a chain at build and rebuild time and carries fresh rows forward
// during repair.
bool PropagateForward(MaintainedChain* chain, std::size_t from,
                      std::vector<Substitution> rows, Source* source,
                      std::string* error) {
  for (std::size_t s = from;; ++s) {
    std::vector<Substitution>& frontier = chain->frontiers[s];
    frontier.insert(frontier.end(), rows.begin(), rows.end());
    if (rows.empty() || s == chain->stages.size()) return true;
    const MaintainedStage& stage = chain->stages[s];
    std::vector<Substitution> next;
    for (const Substitution& row : rows) {
      if (!ExtendRow(stage.literal, stage.pattern, row, source, &next,
                     error)) {
        return false;
      }
    }
    rows = std::move(next);
  }
}

// Discards every frontier of `chain` and re-derives them from the single
// empty binding — a full evaluation of the chain's recorded stages.
// Unlike the executor, an empty frontier does not end the walk: every
// stage keeps a (possibly empty) frontier so a later insert can revive
// the chain from any position.
bool FillChain(MaintainedChain* chain, Source* source, std::string* error) {
  chain->frontiers.assign(chain->stages.size() + 1, {});
  return PropagateForward(chain, 0, {Substitution()}, source, error);
}

// The maintenance engine: applies one normalized multi-relation update
// batch to a materialized chain. Per affected chain it runs
//
//   1. a delete pass — drop every row whose derivation used a deleted tuple
//      at a positive stage, or whose anti-join probe now finds an inserted
//      tuple (anti-join inputs flip sign: an insert *deletes* downstream
//      rows);
//   2. an insert pass over the affected positions in ascending order —
//      delta-join the surviving base rows of frontiers[k] against the
//      inserted tuples (positive stage), or revive the base rows whose
//      probe tuple was deleted (negated stage), then propagate each fresh
//      row forward through the remaining stages with ordinary fetches
//      against the post-update database.
//
// Rows appended by step 2 are excluded from later positions' delta-joins
// (their forward propagation already saw the fully-updated relations), so
// each new derivation is produced exactly once even under self-joins and
// multi-relation batches. The database behind `source` must already hold
// the post-update state for *every* relation in the batch. On a source
// failure returns false, sets `*error`, and leaves the chain in an
// unspecified state — refill it with FillChain.
bool MaintainChain(const std::vector<AppliedDelta>& deltas,
                   MaintainedChain* chain, Source* source,
                   std::string* error) {
  const std::size_t n = chain->stages.size();
  std::vector<const AppliedDelta*> delta_at(n, nullptr);
  bool affected = false;
  for (std::size_t k = 0; k < n; ++k) {
    for (const AppliedDelta& delta : deltas) {
      if (!delta.empty() &&
          delta.relation == chain->stages[k].literal.relation()) {
        delta_at[k] = &delta;
        affected = true;
      }
    }
  }
  if (!affected) return true;

  // Delete pass: a frontier row past stage k dies when its derivation used
  // a now-deleted tuple there (positive), or its anti-join probe tuple was
  // inserted (negated — the insert flips the filter against it). The row
  // itself records the probe: Apply(args) reproduces exactly the tuple the
  // derivation consumed, so no multiplicity counting is needed.
  for (std::size_t s = 1; s <= n; ++s) {
    std::vector<Substitution>& rows = chain->frontiers[s];
    rows.erase(
        std::remove_if(
            rows.begin(), rows.end(),
            [&](const Substitution& row) {
              for (std::size_t k = 0; k < s; ++k) {
                const AppliedDelta* delta = delta_at[k];
                if (delta == nullptr) continue;
                const Tuple used = row.Apply(chain->stages[k].literal.args());
                if (chain->stages[k].literal.positive()
                        ? delta->deleted.count(used) > 0
                        : delta->inserted.count(used) > 0) {
                  return true;
                }
              }
              return false;
            }),
        rows.end());
  }

  // Rows appended below are produced against the fully-updated database,
  // so later positions' delta-joins must skip them: snapshot each
  // frontier's post-delete size as the "base" region.
  std::vector<std::size_t> base_end(n + 1);
  for (std::size_t s = 0; s <= n; ++s) base_end[s] = chain->frontiers[s].size();

  // Insert pass, affected positions in ascending order. Each position k
  // pairs surviving base rows of frontiers[k] with the change at stage k —
  // new tuples for a positive stage, removed probe targets for a negated
  // one (the delete *revives* the row) — and propagates the fresh rows
  // forward. A derivation whose first changed position is k is produced
  // here and nowhere else: earlier positions didn't make it (base rows are
  // old derivations) and later positions won't see it (base_end).
  for (std::size_t k = 0; k < n; ++k) {
    const AppliedDelta* delta = delta_at[k];
    if (delta == nullptr) continue;
    const MaintainedStage& stage = chain->stages[k];
    std::vector<Substitution> fresh;
    if (stage.literal.positive()) {
      if (delta->inserted.empty()) continue;
      for (std::size_t r = 0; r < base_end[k]; ++r) {
        const Substitution& row = chain->frontiers[k][r];
        for (const Tuple& tuple : delta->inserted) {
          std::optional<Substitution> extended =
              UnifyWithTuple(stage.literal, tuple, row);
          if (extended.has_value()) fresh.push_back(std::move(*extended));
        }
      }
    } else {
      if (delta->deleted.empty()) continue;
      for (std::size_t r = 0; r < base_end[k]; ++r) {
        const Substitution& row = chain->frontiers[k][r];
        if (delta->deleted.count(row.Apply(stage.literal.args())) > 0) {
          fresh.push_back(row);
        }
      }
    }
    if (!PropagateForward(chain, k + 1, std::move(fresh), source, error)) {
      return false;
    }
  }
  return true;
}

}  // namespace

struct StandingQuery::Chains {
  std::vector<MaintainedChain> all;
};

StandingQuery::StandingQuery() : chains_(std::make_unique<Chains>()) {}

StandingQuery::~StandingQuery() = default;

std::unique_ptr<StandingQuery> StandingQuery::Build(const UnionQuery& q,
                                                    const Catalog& catalog,
                                                    Source* source,
                                                    std::string* error) {
  std::unique_ptr<StandingQuery> standing(new StandingQuery());
  // Pattern choice never changes the answer set, only the call cost, so
  // the static model's pick is as good as any for maintenance fetches.
  const StaticCostModel model;
  for (const DisjunctPlan& disjunct : PlanStar(q, catalog).disjuncts) {
    // An unsatisfiable disjunct is in neither plan; otherwise `over` is the
    // disjunct's Qᵒ plan, and the disjunct is exact when PLAN* put the same
    // plan into Qᵘ.
    if (!disjunct.over.has_value()) continue;
    MaintainedChain chain{*disjunct.over, disjunct.under.has_value(), {}, {}};
    if (chain.plan.IsTrueQuery()) {
      ExecutionResult head = ExecuteTrueQuery(chain.plan);
      if (!head.ok) {
        *error = head.error;
        return nullptr;
      }
    }
    BoundVariables bound;
    for (const Literal& literal : chain.plan.body()) {
      std::optional<AccessPattern> pattern =
          ChoosePattern(catalog, literal, bound, model);
      if (!pattern.has_value()) {
        *error = "literal " + literal.ToString() +
                 " has no usable access pattern at its position";
        return nullptr;
      }
      chain.stages.push_back({literal, *pattern});
      standing->relations_.insert(literal.relation());
      if (literal.positive()) BindVariables(literal, &bound);
    }
    if (!FillChain(&chain, source, error)) return nullptr;
    standing->chains_->all.push_back(std::move(chain));
  }
  return standing;
}

bool StandingQuery::ApplyDeltas(const std::vector<AppliedDelta>& deltas,
                                Source* source, std::string* error) {
  for (MaintainedChain& chain : chains_->all) {
    std::string maintain_error;
    std::string rebuild_error;
    if (MaintainChain(deltas, &chain, source, &maintain_error) ||
        FillChain(&chain, source, &rebuild_error)) {
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
  for (const MaintainedChain& chain : chains_->all) {
    if (chain.exact && under.ok) {
      ProjectHead(chain.plan, chain.frontiers.back(), &under);
    }
    if (over.ok) ProjectHead(chain.plan, chain.frontiers.back(), &over);
  }
  AssembleBracket(std::move(under), std::move(over), &bracket);
  return bracket;
}

}  // namespace ucqn
